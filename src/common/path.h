// Path helpers for the file systems' namespaces (MemFS in both metadata
// modes, AMFS). Paths are absolute and slash-separated; the VFS entry points
// validate them with IsNormalized before any other helper sees them.
#pragma once

#include <string>

namespace memfs::path {

// Parent directory of a normalized absolute path ("/a/b" -> "/a", "/a" -> "/").
std::string Parent(const std::string& p);

// Final component ("/a/b" -> "b").
std::string Basename(const std::string& p);

// True for a normalized absolute path: starts with '/', no empty or "." /
// ".." components, no trailing slash (except the root itself).
bool IsNormalized(const std::string& p);

}  // namespace memfs::path
