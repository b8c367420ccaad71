#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "common/artifact_file.hh"
#include "workload/catalog.hh"

using namespace elfsim;

namespace fs = std::filesystem;

namespace {

/** A fresh, empty scratch directory for one test. */
fs::path
freshDir(const char *name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::size_t
entries(const fs::path &dir)
{
    return std::size_t(std::distance(fs::directory_iterator(dir),
                                     fs::directory_iterator()));
}

} // namespace

TEST(ArtifactFile, HexKeyRoundTripsAndParsingIsStrict)
{
    EXPECT_EQ(hexKey(0), "0000000000000000");
    EXPECT_EQ(hexKey(0x6cf53c8d440bfefcull), "6cf53c8d440bfefc");
    std::uint64_t k = 0;
    ASSERT_TRUE(parseHexKey(hexKey(0xfedcba9876543210ull), k));
    EXPECT_EQ(k, 0xfedcba9876543210ull);
    ASSERT_TRUE(parseHexKey("A", k));
    EXPECT_EQ(k, 10u);

    for (const char *bad : {"", "+5", "-5", " 5", "5 ", "0x5", "5;x",
                            "g", "10000000000000000"}) {
        SCOPED_TRACE(bad);
        k = 7;
        EXPECT_FALSE(parseHexKey(bad, k));
        EXPECT_EQ(k, 7u); // untouched on failure
    }
}

TEST(ArtifactFile, SanitizedNameFlattensAndKeepsCatalogNames)
{
    EXPECT_EQ(sanitizedName("a/b c:d"), "a_b_c_d");
    EXPECT_EQ(sanitizedName("../../etc"), "_.._etc");
    EXPECT_EQ(sanitizedName("..hidden"), "hidden");
    EXPECT_EQ(sanitizedName("", "trace"), "trace");
    EXPECT_EQ(sanitizedName("...", "ckpt"), "ckpt");
    EXPECT_EQ(sanitizedName("..."), "");

    // Cache directories stay valid: every catalog workload keeps the
    // exact file-name stem it always had.
    for (const WorkloadSpec &w : workloadCatalog())
        EXPECT_EQ(sanitizedName(w.name, "trace"), w.name);
}

TEST(ArtifactFile, AtomicWriteLeavesOnlyTheTarget)
{
    const fs::path dir = freshDir("artifact_atomic");
    const std::string path = (dir / "a.bin").string();
    std::string err;
    ASSERT_TRUE(writeFileAtomic(path, {"ab", "", "cde"}, err)) << err;
    std::ifstream in(path, std::ios::binary);
    const std::string got((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    EXPECT_EQ(got, "abcde");
    EXPECT_EQ(entries(dir), 1u);

    // Rename onto a non-empty directory fails: the temp file must go.
    const fs::path blocker = dir / "blocked";
    fs::create_directories(blocker / "child");
    EXPECT_FALSE(writeFileAtomic(blocker.string(), {"x"}, err));
    EXPECT_NE(err.find("rename"), std::string::npos) << err;
    EXPECT_EQ(entries(dir), 2u); // a.bin + blocked, no temp

    // A missing directory fails at open and creates nothing.
    EXPECT_FALSE(
        writeFileAtomic((dir / "no" / "such.bin").string(), {"x"}, err));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
    EXPECT_EQ(entries(dir), 2u);
    fs::remove_all(dir);
}
