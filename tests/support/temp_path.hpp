// Per-process scratch paths for tests that write files.
//
// gtest_discover_tests runs every test in its own process, and `ctest -j`
// runs several at once. A fixed name under TempDir() would let two processes
// write and read the same file; tagging the name with the process id keeps
// each process's files to itself.
#pragma once

#include <unistd.h>

#include <gtest/gtest.h>

#include <string>

namespace adiv::test {

/// TempDir() + "adiv_<pid>_" + name: a path no other test process uses.
inline std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "adiv_" + std::to_string(::getpid()) + "_" + name;
}

}  // namespace adiv::test
