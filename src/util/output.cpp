#include "util/output.h"

#include <cstdio>

namespace netseer::util {

bool write_file(const std::string& path, std::string_view contents) {
  const bool to_stdout = path == "/dev/stdout" || path == "/dev/fd/1" || path == "/proc/self/fd/1";
  std::FILE* f = to_stdout ? stdout : std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool written = std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  return (to_stdout ? std::fflush(f) : std::fclose(f)) == 0 && written;
}

}  // namespace netseer::util
