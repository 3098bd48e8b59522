// Tests for vocabularies, relations, structures, and occurrence indexing.

#include <gtest/gtest.h>

#include "core/structure.h"

namespace cqcs {
namespace {

VocabularyPtr GraphVocab() {
  auto v = std::make_shared<Vocabulary>();
  v->AddRelation("E", 2);
  return v;
}

TEST(VocabularyTest, AddAndFind) {
  Vocabulary v;
  RelId e = v.AddRelation("E", 2);
  RelId p = v.AddRelation("P", 1);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.FindRelation("E"), e);
  EXPECT_EQ(v.FindRelation("P"), p);
  EXPECT_EQ(v.FindRelation("Q"), std::nullopt);
  EXPECT_EQ(v.arity(e), 2u);
  EXPECT_EQ(v.name(p), "P");
  EXPECT_EQ(v.MaxArity(), 2u);
}

TEST(VocabularyTest, DuplicateRejected) {
  Vocabulary v;
  v.AddRelation("E", 2);
  auto r = v.TryAddRelation("E", 3);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(VocabularyTest, ZeroArityRejected) {
  Vocabulary v;
  auto r = v.TryAddRelation("N", 0);
  EXPECT_FALSE(r.ok());
}

TEST(VocabularyTest, Equals) {
  Vocabulary a, b;
  a.AddRelation("E", 2);
  b.AddRelation("E", 2);
  EXPECT_TRUE(a.Equals(b));
  b.AddRelation("P", 1);
  EXPECT_FALSE(a.Equals(b));
}

TEST(RelationTest, AddAndContains) {
  Relation r(2);
  r.Add({0, 1});
  r.Add({1, 2});
  EXPECT_EQ(r.tuple_count(), 2u);
  Element t0[] = {0, 1};
  Element t1[] = {1, 2};
  Element t2[] = {2, 0};
  EXPECT_TRUE(r.Contains(t0));
  EXPECT_TRUE(r.Contains(t1));
  EXPECT_FALSE(r.Contains(t2));
}

TEST(RelationTest, ContainsAfterMutation) {
  Relation r(1);
  r.Add({3});
  Element a[] = {3}, b[] = {4};
  EXPECT_TRUE(r.Contains(a));
  r.Add({4});
  EXPECT_TRUE(r.Contains(b));  // index must be rebuilt
}

TEST(RelationTest, Dedup) {
  Relation r(2);
  r.Add({1, 1});
  r.Add({0, 1});
  r.Add({1, 1});
  r.Dedup();
  EXPECT_EQ(r.tuple_count(), 2u);
  Element t[] = {1, 1};
  EXPECT_TRUE(r.Contains(t));
}

TEST(RelationTest, DuplicateFreeIsKnownOnlyWhileIndexed) {
  Relation set(2), bag(2);
  for (Relation* r : {&set, &bag}) {
    r->Add({1, 1});
    r->Add({0, 1});
    r->Add({1, 0});
  }
  bag.Add({0, 1});  // equal to a tuple that is not its neighbour
  EXPECT_EQ(set.duplicate_free(), std::nullopt);
  EXPECT_EQ(bag.duplicate_free(), std::nullopt);
  set.EnsureIndex();
  bag.EnsureIndex();
  EXPECT_EQ(set.duplicate_free(), true);
  EXPECT_EQ(bag.duplicate_free(), false);
  set.Add({2, 2});  // a mutation forgets it, as it forgets the index
  bag.Add({2, 2});
  EXPECT_EQ(set.duplicate_free(), std::nullopt);
  EXPECT_EQ(bag.duplicate_free(), std::nullopt);
  bag.Dedup();
  EXPECT_EQ(bag.duplicate_free(), std::nullopt);
  bag.EnsureIndex();
  EXPECT_EQ(bag.duplicate_free(), true);
  bag.Clear();
  EXPECT_EQ(bag.duplicate_free(), std::nullopt);
}

TEST(RelationTest, EqualityIgnoresOrder) {
  Relation a(2), b(2);
  a.Add({0, 1});
  a.Add({2, 3});
  b.Add({2, 3});
  b.Add({0, 1});
  EXPECT_TRUE(a == b);
  b.Add({0, 0});
  EXPECT_FALSE(a == b);
}

TEST(StructureTest, BuildAndQuery) {
  Structure s(GraphVocab(), 3);
  s.AddTuple(0, {0, 1});
  s.AddTuple(0, {1, 2});
  EXPECT_EQ(s.universe_size(), 3u);
  EXPECT_EQ(s.TotalTuples(), 2u);
  EXPECT_EQ(s.Size(), 3u + 4u);
  EXPECT_TRUE(s.Validate().ok());
}

TEST(StructureTest, TryAddTupleValidation) {
  Structure s(GraphVocab(), 2);
  Element bad_len[] = {0};
  EXPECT_EQ(s.TryAddTuple(0, bad_len).code(), StatusCode::kInvalidArgument);
  Element out_of_range[] = {0, 5};
  EXPECT_EQ(s.TryAddTuple(0, out_of_range).code(),
            StatusCode::kInvalidArgument);
  Element ok[] = {0, 1};
  EXPECT_TRUE(s.TryAddTuple(0, ok).ok());
  EXPECT_EQ(s.TryAddTuple(7, ok).code(), StatusCode::kInvalidArgument);
}

TEST(StructureTest, GrowUniverse) {
  Structure s(GraphVocab(), 1);
  s.GrowUniverse(4);
  s.AddTuple(0, {0, 3});
  EXPECT_TRUE(s.Validate().ok());
}

TEST(StructureTest, Equality) {
  Structure a(GraphVocab(), 2), b(GraphVocab(), 2);
  a.AddTuple(0, {0, 1});
  b.AddTuple(0, {0, 1});
  EXPECT_TRUE(a == b);
  b.AddTuple(0, {1, 0});
  EXPECT_FALSE(a == b);
}

TEST(OccurrenceIndexTest, ListsAllOccurrences) {
  auto vocab = std::make_shared<Vocabulary>();
  RelId e = vocab->AddRelation("E", 2);
  RelId p = vocab->AddRelation("P", 1);
  Structure s(vocab, 3);
  s.AddTuple(e, {0, 1});
  s.AddTuple(e, {1, 1});
  s.AddTuple(p, {1});
  OccurrenceIndex index(s);
  EXPECT_EQ(index.occurrences(0).size(), 1u);
  EXPECT_EQ(index.occurrences(1).size(), 4u);  // twice in tuple (1,1)
  EXPECT_EQ(index.occurrences(2).size(), 0u);
  auto occ = index.occurrences(0)[0];
  EXPECT_EQ(occ.rel, e);
  EXPECT_EQ(occ.tuple_index, 0u);
  EXPECT_EQ(occ.pos, 0u);
}

}  // namespace
}  // namespace cqcs
