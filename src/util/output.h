#pragma once

#include <string>
#include <string_view>

namespace netseer::util {

/// Write `contents` to the file at `path`, replacing what it held; false
/// when the file cannot be opened or written. A path that names the
/// program's standard output (/dev/stdout, /dev/fd/1, /proc/self/fd/1)
/// is written through `stdout` itself and flushed, so the bytes land
/// after what the program printed before, the same in a file as in a
/// pipe. Opening such a path afresh would truncate a redirected file and
/// write at offset 0, where the program's buffered output then lands on
/// top. The one writer of every output file a command line names.
[[nodiscard]] bool write_file(const std::string& path, std::string_view contents);

}  // namespace netseer::util
