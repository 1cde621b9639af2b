#include "dip/mesh/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

namespace dip::mesh {

namespace {

[[nodiscard]] sockaddr_in to_sockaddr(const Endpoint& e) noexcept {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(e.ip);
  sa.sin_port = htons(e.port);
  return sa;
}

[[nodiscard]] Endpoint from_sockaddr(const sockaddr_in& sa) noexcept {
  return {ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
}

/// A receive that delivered nothing: just the status.
[[nodiscard]] RecvOutcome status_only(IoStatus status) noexcept {
  RecvOutcome out;
  out.status = status;
  return out;
}

void raise_buffer(int fd, int option) noexcept {
  // Best effort toward the unprivileged rmem_max/wmem_max ceiling; the
  // default ~208 kB holds ~1.4k mesh datagrams, the ceiling ~4x that.
  for (const int bytes : {8 << 20, 4 << 20, 1 << 20}) {
    if (::setsockopt(fd, SOL_SOCKET, option, &bytes, sizeof bytes) == 0) return;
  }
}

}  // namespace

UdpSocket::UdpSocket(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "mesh socket()");
  }
  raise_buffer(fd_, SO_RCVBUF);
  raise_buffer(fd_, SO_SNDBUF);
  sockaddr_in sa = to_sockaddr({0x7F000001, port});
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    const int err = errno;
    ::close(fd_);
    throw std::system_error(err, std::generic_category(), "mesh bind()");
  }
  socklen_t len = sizeof sa;
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len);
  local_ = from_sockaddr(sa);
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

IoStatus UdpSocket::send_to(const Endpoint& to,
                            std::span<const std::uint8_t> bytes) {
  const sockaddr_in sa = to_sockaddr(to);
  const ssize_t n =
      ::sendto(fd_, bytes.data(), bytes.size(), 0,
               reinterpret_cast<const sockaddr*>(&sa), sizeof sa);
  if (n == static_cast<ssize_t>(bytes.size())) return IoStatus::kOk;
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS)) {
    return IoStatus::kAgain;
  }
  // ECONNREFUSED from a previous send's ICMP error is transient on
  // loopback (the peer socket raced away); report kAgain so the caller
  // buckets it rather than tearing the face down.
  if (n < 0 && errno == ECONNREFUSED) return IoStatus::kAgain;
  return IoStatus::kError;
}

RecvOutcome UdpSocket::recv_from(std::span<std::uint8_t> buf) {
  sockaddr_in sa{};
  socklen_t slen = sizeof sa;
  const ssize_t n =
      ::recvfrom(fd_, buf.data(), buf.size(), MSG_TRUNC,
                 reinterpret_cast<sockaddr*>(&sa), &slen);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return status_only(IoStatus::kAgain);
    if (errno == ECONNREFUSED) return status_only(IoStatus::kAgain);  // stale ICMP error
    return status_only(IoStatus::kError);
  }
  RecvOutcome out;
  out.status = IoStatus::kOk;
  out.size = static_cast<std::size_t>(n);  // MSG_TRUNC: true datagram size
  out.truncated = out.size > buf.size();
  out.from = from_sockaddr(sa);
  return out;
}

std::unique_ptr<MockSocket> MockFabric::create(std::uint16_t port) {
  const Endpoint local{0x7F000001, port};
  auto inbox = std::make_shared<Inbox>();
  inboxes_[local] = inbox;
  return std::unique_ptr<MockSocket>(new MockSocket(this, local, std::move(inbox)));
}

IoStatus MockSocket::send_to(const Endpoint& to,
                             std::span<const std::uint8_t> bytes) {
  if (fail_sends_ > 0) {
    --fail_sends_;
    return IoStatus::kAgain;
  }
  const auto it = fabric_->inboxes_.find(to);
  if (it == fabric_->inboxes_.end()) {
    ++fabric_->unrouted_;  // real UDP: sent into the void, no local error
    return IoStatus::kOk;
  }
  it->second->queue.push_back(
      {local_, std::vector<std::uint8_t>(bytes.begin(), bytes.end())});
  return IoStatus::kOk;
}

RecvOutcome MockSocket::recv_from(std::span<std::uint8_t> buf) {
  if (spurious_) {
    spurious_ = false;
    return status_only(IoStatus::kAgain);
  }
  if (inbox_->queue.empty()) return status_only(IoStatus::kAgain);
  MockFabric::Datagram d = std::move(inbox_->queue.front());
  inbox_->queue.pop_front();
  RecvOutcome out;
  out.status = IoStatus::kOk;
  out.size = d.bytes.size();
  out.truncated = d.bytes.size() > buf.size();
  out.from = d.from;
  std::memcpy(buf.data(), d.bytes.data(), std::min(buf.size(), d.bytes.size()));
  return out;
}

}  // namespace dip::mesh
