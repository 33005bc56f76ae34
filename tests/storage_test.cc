#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::I;
using testing_util::MakeTable;
using testing_util::N;

TEST(CatalogTest, RegisterAndLookup) {
  Catalog cat;
  ASSERT_OK(cat.RegisterTable("t", MakeTable({"a", "b"}, {{I(1), I(2)}}), "a"));
  EXPECT_TRUE(cat.HasTable("t"));
  ASSERT_OK_AND_ASSIGN(const Table* t, cat.GetTable("t"));
  EXPECT_EQ(t->num_rows(), 1);
  EXPECT_FALSE(cat.GetTable("missing").ok());
}

TEST(CatalogTest, DuplicateRejected) {
  Catalog cat;
  ASSERT_OK(cat.RegisterTable("t", MakeTable({"a"}, {}), "a"));
  EXPECT_EQ(cat.RegisterTable("t", MakeTable({"a"}, {}), "a").code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, BadPrimaryKeyRejected) {
  Catalog cat;
  EXPECT_FALSE(cat.RegisterTable("t", MakeTable({"a"}, {}), "zz").ok());
}

TEST(CatalogTest, NotNullTracking) {
  Catalog cat;
  ASSERT_OK(cat.RegisterTable("t", MakeTable({"a", "b"}, {}), "a", {"b"}));
  EXPECT_TRUE(cat.IsNotNull("t", "a"));  // PK is implicitly NOT NULL
  EXPECT_TRUE(cat.IsNotNull("t", "b"));
  ASSERT_OK(cat.DropNotNull("t", "b"));
  EXPECT_FALSE(cat.IsNotNull("t", "b"));
  ASSERT_OK(cat.AddNotNull("t", "b"));
  EXPECT_TRUE(cat.IsNotNull("t", "b"));
  EXPECT_FALSE(cat.AddNotNull("t", "zz").ok());
}

TEST(CatalogTest, DropTable) {
  Catalog cat;
  ASSERT_OK(cat.RegisterTable("t", MakeTable({"a"}, {}), "a"));
  ASSERT_OK(cat.DropTable("t"));
  EXPECT_FALSE(cat.HasTable("t"));
  EXPECT_FALSE(cat.DropTable("t").ok());
}

TEST(HashIndexTest, LookupSkipsNulls) {
  const Table t = MakeTable({"k", "v"}, {{I(1), I(10)},
                                         {I(2), I(20)},
                                         {I(1), I(30)},
                                         {N(), I(40)}});
  const HashIndex idx(t, 0);
  EXPECT_EQ(idx.Lookup(I(1)).size(), 2u);
  EXPECT_EQ(idx.Lookup(I(2)).size(), 1u);
  EXPECT_EQ(idx.Lookup(I(9)).size(), 0u);
  EXPECT_EQ(idx.Lookup(N()).size(), 0u);  // NULL probes match nothing
  EXPECT_EQ(idx.num_keys(), 2);
}

TEST(CatalogTest, IndexCaching) {
  Catalog cat;
  ASSERT_OK(cat.RegisterTable("t", MakeTable({"a"}, {{I(1)}, {I(2)}}), "a"));
  ASSERT_OK_AND_ASSIGN(const HashIndex* i1, cat.GetHashIndex("t", "a"));
  ASSERT_OK_AND_ASSIGN(const HashIndex* i2, cat.GetHashIndex("t", "a"));
  EXPECT_EQ(i1, i2);  // cached
  EXPECT_FALSE(cat.GetHashIndex("t", "zz").ok());
}

}  // namespace
}  // namespace nestra
