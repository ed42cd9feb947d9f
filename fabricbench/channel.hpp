// Line protocol between the benchmark's parent process and its forked rank
// processes: the parent writes one command line down a pipe, the rank
// answers with one reply line up another. A line is space-separated
// key=value fields; values never contain spaces (free text is escaped by
// field_text).
#pragma once

#include <map>
#include <string>
#include <utility>

namespace fabricbench {

using Fields = std::map<std::string, std::string>;

/// "k1=v1 k2=v2" (map order).
std::string encode_fields(const Fields& f);
Fields decode_fields(const std::string& line);

/// Exact decimal text of a double (round-trips).
std::string field_number(double v);
/// Free text with whitespace replaced, so it fits one field.
std::string field_text(const std::string& s);

/// Numeric field, `fallback` when absent or malformed.
double field_or(const Fields& f, const std::string& key, double fallback = 0);

/// Buffered line I/O over one pipe pair; owns both descriptors.
class Channel {
 public:
  Channel() = default;
  Channel(int read_fd, int write_fd) : rfd_(read_fd), wfd_(write_fd) {}
  Channel(Channel&& other) noexcept { *this = std::move(other); }
  Channel& operator=(Channel&& other) noexcept;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  ~Channel() { close(); }

  /// Write `line` plus '\n'; false when the peer is gone.
  bool send(const std::string& line);

  /// Next line without its '\n'. Waits at most `timeout_ms` (< 0: forever);
  /// false on timeout, EOF or error.
  bool receive(std::string* line, int timeout_ms);

  void close();

 private:
  int rfd_ = -1;
  int wfd_ = -1;
  std::string buf_;
};

}  // namespace fabricbench
