#ifndef FACTORML_NET_SOCKET_H_
#define FACTORML_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/frame.h"

namespace factorml::net {

/// Writes exactly `len` bytes to a socket, looping on short writes and
/// EINTR. Sends carry MSG_NOSIGNAL so a peer that died mid-conversation
/// surfaces as EPIPE (an IoError the caller handles), never as a
/// process-killing SIGPIPE.
Status SendAll(int fd, const char* data, size_t len);

/// One length-prefixed frame connection over a connected socket: framed
/// sends, an incremental receive buffer, and byte/frame counters in the
/// obs registry (net.bytes_sent/recv, net.frames_sent/recv). Owns the fd.
class FrameConn {
 public:
  FrameConn() = default;
  explicit FrameConn(int fd) : fd_(fd) {}
  ~FrameConn() { Close(); }
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;
  FrameConn(FrameConn&& other) noexcept { *this = std::move(other); }
  FrameConn& operator=(FrameConn&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
      decoder_ = std::move(other.decoder_);
      eof_ = other.eof_;
    }
    return *this;
  }

  bool open() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// True once the peer closed its end (a worker death is an immediate
  /// EOF, not a timeout).
  bool eof() const { return eof_; }
  void Close();

  Status SendFrame(uint32_t type, const std::string& payload);

  /// Drains whatever the socket has buffered into the frame decoder
  /// without blocking (call after poll() reported readability). Records
  /// EOF; IoError on a hard socket error.
  Status ReadAvailable();

  /// Extracts the next buffered complete frame (never reads the socket).
  Status NextFrame(Frame* frame, bool* got) {
    return decoder_.Next(frame, got);
  }

  /// Blocking receive of one frame, looping read/poll on EINTR and short
  /// reads. timeout_ms < 0 waits forever. Fails with IoError on EOF or
  /// a FailedPrecondition mentioning "timeout" on deadline expiry.
  Status RecvFrame(Frame* frame, int timeout_ms);

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  bool eof_ = false;
};

/// A listening socket for shard workers: a Unix-domain path, or TCP on
/// 127.0.0.1 with a kernel-assigned port when the path is too long.
class Listener {
 public:
  Listener() = default;
  ~Listener() { Close();  }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens on a Unix-domain socket at `path` (unlinked first).
  Status ListenUnix(const std::string& path);
  /// Binds and listens on 127.0.0.1:0; the chosen port lands in address().
  Status ListenTcpLoopback();

  /// The connect address workers are handed: "unix:<path>" or
  /// "tcp:127.0.0.1:<port>".
  const std::string& address() const { return address_; }

  /// Accepts one connection, waiting at most timeout_ms (-1 = forever).
  Status Accept(FrameConn* conn, int timeout_ms);

  void Close();

 private:
  int fd_ = -1;
  std::string address_;
  std::string unix_path_;
};

/// Connects to an address produced by Listener::address().
Status ConnectAddress(const std::string& address, FrameConn* conn);

/// poll(2) over a set of connections, looping on EINTR against a fixed
/// deadline. Returns the indices (into `conns`) that are readable or
/// hung up; an empty result means the timeout elapsed.
Status PollReadable(const std::vector<FrameConn*>& conns, int timeout_ms,
                    std::vector<size_t>* ready);

}  // namespace factorml::net

#endif  // FACTORML_NET_SOCKET_H_
