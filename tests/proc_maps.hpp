// The mapping behind an address, read from /proc/self/maps: tests use it
// to tell a file mapping (PIEglobals' code descriptor) from anonymous
// memory, and one file from another.
#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace apv::test {

struct Mapping {
  bool found = false;
  unsigned long inode = 0;  ///< 0 for anonymous memory
  std::string path;         ///< "" for anonymous memory
};

inline Mapping mapping_at(const void* addr) {
  std::ifstream maps("/proc/self/maps");
  const auto a = reinterpret_cast<unsigned long>(addr);
  for (std::string line; std::getline(maps, line);) {
    unsigned long lo = 0, hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx", &lo, &hi) != 2) continue;
    if (a < lo || a >= hi) continue;
    // Fields: range perms offset dev inode [path]
    std::istringstream fields(line);
    std::string range, perms, offset, dev;
    Mapping m;
    m.found = true;
    fields >> range >> perms >> offset >> dev >> m.inode;
    std::getline(fields >> std::ws, m.path);
    return m;
  }
  return {};
}

}  // namespace apv::test
