#include "channel.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace fabricbench {

std::string encode_fields(const Fields& f) {
  std::string out;
  for (const auto& [k, v] : f) {
    if (!out.empty()) out += ' ';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

Fields decode_fields(const std::string& line) {
  Fields f;
  std::size_t pos = 0;
  while (pos < line.size()) {
    std::size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    const std::string tok = line.substr(pos, end - pos);
    const std::size_t eq = tok.find('=');
    if (eq != std::string::npos)
      f[tok.substr(0, eq)] = tok.substr(eq + 1);
    else if (!tok.empty())
      f[tok] = "";
    pos = end + 1;
  }
  return f;
}

std::string field_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string field_text(const std::string& s) {
  std::string out = s;
  for (char& c : out)
    if (c == ' ' || c == '\n' || c == '\t' || c == '\r') c = '_';
  return out.empty() ? "-" : out;
}

double field_or(const Fields& f, const std::string& key, double fallback) {
  const auto it = f.find(key);
  if (it == f.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  return end != it->second.c_str() ? v : fallback;
}

bool Channel::send(const std::string& line) {
  const std::string msg = line + '\n';
  std::size_t off = 0;
  while (off < msg.size()) {
    const ssize_t n = ::write(wfd_, msg.data() + off, msg.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Channel::receive(std::string* line, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      *line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    int wait = -1;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (left <= 0) return false;
      wait = static_cast<int>(left);
    }
    pollfd p{rfd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, wait);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[4096];
    const ssize_t n = ::read(rfd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

Channel& Channel::operator=(Channel&& other) noexcept {
  if (this != &other) {
    close();
    rfd_ = std::exchange(other.rfd_, -1);
    wfd_ = std::exchange(other.wfd_, -1);
    buf_ = std::move(other.buf_);
  }
  return *this;
}

void Channel::close() {
  if (rfd_ >= 0) ::close(rfd_);
  if (wfd_ >= 0) ::close(wfd_);
  rfd_ = wfd_ = -1;
}

}  // namespace fabricbench
