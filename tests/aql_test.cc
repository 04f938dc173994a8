#include <gtest/gtest.h>

#include "aql/lexer.h"
#include "aql/parser.h"
#include "aql/session.h"
#include "tests/test_util.h"

namespace avm::aql {
namespace {

TEST(AqlLexerTest, TokenizesIdentifiersNumbersSymbols) {
  auto tokens = Tokenize("CREATE ARRAY A <r:int> [i=1,6,2]");
  ASSERT_OK(tokens.status());
  ASSERT_GE(tokens->size(), 5u);
  EXPECT_TRUE((*tokens)[0].Is("CREATE"));
  EXPECT_TRUE((*tokens)[0].Is("create"));  // case-insensitive
  EXPECT_TRUE((*tokens)[1].Is("ARRAY"));
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
}

TEST(AqlLexerTest, NegativeAndFractionalNumbers) {
  auto tokens = Tokenize("WINDOW(time, -199, 0) L2(1.5)");
  ASSERT_OK(tokens.status());
  bool saw_negative = false, saw_fraction = false;
  for (const auto& t : *tokens) {
    if (t.kind == TokenKind::kNumber && t.number == -199) {
      saw_negative = true;
      EXPECT_TRUE(t.is_integer);
    }
    if (t.kind == TokenKind::kNumber && t.number == 1.5) {
      saw_fraction = true;
      EXPECT_FALSE(t.is_integer);
    }
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_fraction);
}

TEST(AqlLexerTest, SqlCommentsSkipped) {
  auto tokens = Tokenize("CREATE -- a comment\nARRAY");
  ASSERT_OK(tokens.status());
  ASSERT_EQ(tokens->size(), 3u);  // CREATE, ARRAY, <end>
}

TEST(AqlLexerTest, RejectsStrayCharacters) {
  EXPECT_TRUE(Tokenize("CREATE @").status().IsInvalidArgument());
}

TEST(AqlParserTest, ParsesCreateArray) {
  auto parsed = ParseStatement(
      "CREATE ARRAY A <r:int, s:double, t> [i = 1, 6, 2; j = 1, 8, 2];");
  ASSERT_OK(parsed.status());
  const auto& stmt = std::get<CreateArrayStatement>(*parsed);
  EXPECT_EQ(stmt.name, "A");
  ASSERT_EQ(stmt.attrs.size(), 3u);
  EXPECT_EQ(stmt.attrs[0].type, AttributeType::kInt64);
  EXPECT_EQ(stmt.attrs[1].type, AttributeType::kDouble);
  EXPECT_EQ(stmt.attrs[2].type, AttributeType::kDouble);
  ASSERT_EQ(stmt.dims.size(), 2u);
  EXPECT_EQ(stmt.dims[1].name, "j");
  EXPECT_EQ(stmt.dims[1].hi, 8);
  EXPECT_EQ(stmt.dims[1].chunk_extent, 2);
}

TEST(AqlParserTest, ParsesThePaperViewStatement) {
  auto parsed = ParseStatement(
      "CREATE ARRAY VIEW V AS SELECT COUNT(*) AS cnt "
      "FROM A A1 SIMILARITY JOIN A A2 "
      "ON (A1.i = A2.i) AND (A1.j = A2.j) "
      "WITH SHAPE L1(1) GROUP BY A1.i, A1.j");
  ASSERT_OK(parsed.status());
  const auto& stmt = std::get<CreateViewStatement>(*parsed);
  EXPECT_EQ(stmt.name, "V");
  ASSERT_EQ(stmt.aggs.size(), 1u);
  EXPECT_EQ(stmt.aggs[0].fn, AggregateFunction::kCount);
  EXPECT_EQ(stmt.aggs[0].alias, "cnt");
  EXPECT_EQ(stmt.left_array, "A");
  EXPECT_EQ(stmt.left_alias, "A1");
  EXPECT_EQ(stmt.right_alias, "A2");
  ASSERT_EQ(stmt.on_pairs.size(), 2u);
  EXPECT_EQ(stmt.on_pairs[0].first, "i");
  EXPECT_EQ(stmt.on_pairs[1].second, "j");
  ASSERT_NE(stmt.shape, nullptr);
  EXPECT_EQ(stmt.shape->kind, ShapeExpr::Kind::kBall);
  EXPECT_EQ(stmt.shape->norm, Shape::Norm::kL1);
  EXPECT_EQ(stmt.shape->radius, 1.0);
  EXPECT_EQ(stmt.group_by, (std::vector<std::string>{"i", "j"}));
}

TEST(AqlParserTest, ParsesShapeProductsAndWindows) {
  auto parsed = ParseStatement(
      "CREATE ARRAY VIEW PTF5 AS SELECT COUNT(*) "
      "FROM PTF SIMILARITY JOIN PTF "
      "WITH SHAPE L1(1, DIMS(ra, dec)) * WINDOW(time, -199, 0)");
  ASSERT_OK(parsed.status());
  const auto& stmt = std::get<CreateViewStatement>(*parsed);
  ASSERT_EQ(stmt.shape->kind, ShapeExpr::Kind::kProduct);
  EXPECT_EQ(stmt.shape->lhs->kind, ShapeExpr::Kind::kBall);
  EXPECT_EQ(stmt.shape->lhs->dims,
            (std::vector<std::string>{"ra", "dec"}));
  EXPECT_EQ(stmt.shape->rhs->kind, ShapeExpr::Kind::kWindow);
  EXPECT_EQ(stmt.shape->rhs->window_lo, -199);
  EXPECT_EQ(stmt.shape->rhs->window_hi, 0);
}

TEST(AqlParserTest, ParsesMultipleAggregates) {
  auto parsed = ParseStatement(
      "CREATE ARRAY VIEW V AS SELECT COUNT(*), SUM(bright) AS total, "
      "AVG(mag) FROM A SIMILARITY JOIN A WITH SHAPE LINF(2)");
  ASSERT_OK(parsed.status());
  const auto& stmt = std::get<CreateViewStatement>(*parsed);
  ASSERT_EQ(stmt.aggs.size(), 3u);
  EXPECT_EQ(stmt.aggs[1].fn, AggregateFunction::kSum);
  EXPECT_EQ(stmt.aggs[1].attr, "bright");
  EXPECT_EQ(stmt.aggs[1].alias, "total");
  EXPECT_EQ(stmt.aggs[2].fn, AggregateFunction::kAvg);
}

TEST(AqlParserTest, ErrorsCarryOffsets) {
  auto parsed = ParseStatement("CREATE TABLE A");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("offset"), std::string::npos);
  EXPECT_TRUE(ParseStatement("CREATE ARRAY A <r:int>").status()
                  .IsInvalidArgument());  // missing dimensions
  EXPECT_TRUE(ParseStatement(
                  "CREATE ARRAY VIEW V AS SELECT COUNT(*) FROM A "
                  "SIMILARITY JOIN A WITH SHAPE L7(1)")
                  .status()
                  .IsInvalidArgument());
}

class AqlSessionTest : public ::testing::Test {
 protected:
  AqlSessionTest() : cluster_(3), session_(&catalog_, &cluster_) {}

  Catalog catalog_;
  Cluster cluster_;
  AqlSession session_;
};

TEST_F(AqlSessionTest, CreateArrayRegisters) {
  ASSERT_OK_AND_ASSIGN(
      std::string summary,
      session_.Execute("CREATE ARRAY A <r:int, s:int> [i=1,6,2; j=1,8,2]"));
  EXPECT_NE(summary.find("created array A"), std::string::npos);
  ASSERT_NE(session_.GetArray("A"), nullptr);
  EXPECT_OK(catalog_.ArrayIdByName("A").status());
}

TEST_F(AqlSessionTest, EndToEndPaperExample) {
  ASSERT_OK(session_
                .Execute("CREATE ARRAY A <r:int, s:int> "
                         "[i=1,6,2; j=1,8,2]")
                .status());
  // Load Figure 1(a)'s six cells.
  SparseArray initial(session_.GetArray("A")->schema());
  const int64_t cells[6][2] = {{1, 2}, {1, 3}, {2, 8},
                               {4, 4}, {5, 1}, {6, 2}};
  for (const auto& c : cells) {
    ASSERT_OK(initial.Set({c[0], c[1]}, std::vector<double>{1.0, 1.0}));
  }
  ASSERT_OK(session_.InsertCells("A", initial).status());

  ASSERT_OK_AND_ASSIGN(
      std::string summary,
      session_.Execute(
          "CREATE ARRAY VIEW V AS SELECT COUNT(*) AS cnt "
          "FROM A A1 SIMILARITY JOIN A A2 "
          "ON (A1.i = A2.i) AND (A1.j = A2.j) "
          "WITH SHAPE L1(1) GROUP BY A1.i, A1.j"));
  EXPECT_NE(summary.find("materialized view V"), std::string::npos);
  MaterializedView* view = session_.GetView("V");
  ASSERT_NE(view, nullptr);
  ASSERT_OK_AND_ASSIGN(SparseArray finalized, view->GatherFinalized());
  EXPECT_EQ((*finalized.Get({1, 2}))[0], 2.0);  // the Figure 1(a) values
  EXPECT_EQ((*finalized.Get({4, 4}))[0], 1.0);

  // Inserts flow through incremental maintenance.
  SparseArray batch(session_.GetArray("A")->schema());
  ASSERT_OK(batch.Set({1, 5}, std::vector<double>{5.0, 6.0}));
  ASSERT_OK(batch.Set({2, 3}, std::vector<double>{4.0, 9.0}));
  ASSERT_OK_AND_ASSIGN(auto reports, session_.InsertCells("A", batch));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(testing_util::ViewMatchesRecompute(*view));
}

TEST_F(AqlSessionTest, WindowedShapeResolves) {
  ASSERT_OK(session_
                .Execute("CREATE ARRAY PTF <bright, mag> "
                         "[time=1,200,50; ra=1,100,20; dec=1,100,20]")
                .status());
  ASSERT_OK(session_
                .Execute("CREATE ARRAY VIEW PTF5 AS SELECT COUNT(*) "
                         "FROM PTF SIMILARITY JOIN PTF "
                         "WITH SHAPE L1(1, DIMS(ra, dec)) * "
                         "WINDOW(time, -199, 0)")
                .status());
  MaterializedView* view = session_.GetView("PTF5");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->definition().shape.size(), 5u * 200u);
  EXPECT_FALSE(view->definition().shape.IsSymmetric());
}

TEST_F(AqlSessionTest, RejectsViewOverView) {
  ASSERT_OK(session_.Execute("CREATE ARRAY A <r> [i=1,10,5; j=1,10,5]")
                .status());
  ASSERT_OK(session_
                .Execute("CREATE ARRAY VIEW V AS SELECT COUNT(*) AS cnt "
                         "FROM A SIMILARITY JOIN A WITH SHAPE L1(1)")
                .status());
  // Nothing maintains a view over V (InsertCells into A maintains only the
  // views over A), so accepting W would publish a stale view forever.
  EXPECT_TRUE(session_
                  .Execute("CREATE ARRAY VIEW W AS SELECT COUNT(*) AS cnt "
                           "FROM V SIMILARITY JOIN V WITH SHAPE L1(1)")
                  .status()
                  .IsUnimplemented());
  EXPECT_TRUE(session_
                  .Execute("CREATE ARRAY VIEW W AS SELECT COUNT(*) AS cnt "
                           "FROM A SIMILARITY JOIN V WITH SHAPE L1(1)")
                  .status()
                  .IsUnimplemented());
  EXPECT_EQ(session_.GetView("W"), nullptr);
  EXPECT_EQ(session_.num_views(), 1u);
  EXPECT_TRUE(catalog_.ArrayIdByName("W").status().IsNotFound());
}

TEST_F(AqlSessionTest, RejectsUnknownNames) {
  EXPECT_TRUE(session_
                  .Execute("CREATE ARRAY VIEW V AS SELECT COUNT(*) FROM "
                           "missing SIMILARITY JOIN missing WITH SHAPE L1(1)")
                  .status()
                  .IsNotFound());
  ASSERT_OK(session_
                .Execute("CREATE ARRAY A <r> [i=1,10,5]")
                .status());
  EXPECT_TRUE(session_
                  .Execute("CREATE ARRAY VIEW V AS SELECT SUM(zzz) FROM A "
                           "SIMILARITY JOIN A WITH SHAPE L1(1)")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(session_
                  .Execute("CREATE ARRAY VIEW V AS SELECT COUNT(*) FROM A "
                           "SIMILARITY JOIN A WITH SHAPE "
                           "WINDOW(nodim, 0, 1)")
                  .status()
                  .IsNotFound());
}

TEST_F(AqlSessionTest, RejectsIncompleteOnClause) {
  ASSERT_OK(session_.Execute("CREATE ARRAY A <r> [i=1,10,5; j=1,10,5]")
                .status());
  EXPECT_TRUE(session_
                  .Execute("CREATE ARRAY VIEW V AS SELECT COUNT(*) FROM A "
                           "A1 SIMILARITY JOIN A A2 ON (A1.i = A2.i) "
                           "WITH SHAPE L1(1)")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(AqlSessionTest, CompatibleViewsPoolIntoOneSet) {
  ASSERT_OK(session_.Execute("CREATE ARRAY A <r> [i=1,10,5]").status());
  SparseArray initial(session_.GetArray("A")->schema());
  for (int64_t i = 1; i <= 9; i += 2) {
    ASSERT_OK(initial.Set({i}, std::vector<double>{double(i)}));
  }
  ASSERT_OK(session_.InsertCells("A", initial).status());
  ASSERT_OK(session_
                .Execute("CREATE ARRAY VIEW V1 AS SELECT COUNT(*) FROM A "
                         "SIMILARITY JOIN A WITH SHAPE L1(1)")
                .status());
  // A second identity self-join over the same base pools into the set and
  // is maintained by the shared delta pass.
  ASSERT_OK(session_
                .Execute("CREATE ARRAY VIEW V2 AS SELECT COUNT(*) FROM A "
                         "SIMILARITY JOIN A WITH SHAPE LINF(2)")
                .status());
  SparseArray batch(session_.GetArray("A")->schema());
  ASSERT_OK(batch.Set({2}, std::vector<double>{7.0}));
  ASSERT_OK(batch.Set({6}, std::vector<double>{8.0}));
  ASSERT_OK_AND_ASSIGN(auto reports, session_.InsertCells("A", batch));
  // One shared pass covers both members.
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].per_view_breakdown().size(), 2u);
  EXPECT_TRUE(testing_util::ViewMatchesRecompute(*session_.GetView("V1")));
  EXPECT_TRUE(testing_util::ViewMatchesRecompute(*session_.GetView("V2")));
}

TEST_F(AqlSessionTest, IncompatibleViewOverSameBaseIsRejected) {
  ASSERT_OK(
      session_.Execute("CREATE ARRAY A <r> [i=1,10,5; j=1,10,5]").status());
  ASSERT_OK(session_
                .Execute("CREATE ARRAY VIEW V1 AS SELECT COUNT(*) FROM A "
                         "A1 SIMILARITY JOIN A A2 "
                         "ON (A1.i = A2.i) AND (A1.j = A2.j) "
                         "WITH SHAPE L1(1) GROUP BY A1.i, A1.j")
                .status());
  // Different group dimensions cannot share the set's joint plan.
  EXPECT_TRUE(session_
                  .Execute("CREATE ARRAY VIEW V2 AS SELECT COUNT(*) FROM A "
                           "A1 SIMILARITY JOIN A A2 "
                           "ON (A1.i = A2.i) AND (A1.j = A2.j) "
                           "WITH SHAPE LINF(1) GROUP BY A1.i")
                  .status()
                  .IsInvalidArgument());
  // The rejected view left nothing behind; compatible ones still pool.
  EXPECT_EQ(session_.num_views(), 1u);
  EXPECT_EQ(session_.GetView("V2"), nullptr);
}

TEST_F(AqlSessionTest, InsertWithoutViewIngestsPlainly) {
  ASSERT_OK(session_.Execute("CREATE ARRAY A <r> [i=1,10,5]").status());
  SparseArray cells(session_.GetArray("A")->schema());
  ASSERT_OK(cells.Set({3}, std::vector<double>{1.0}));
  ASSERT_OK_AND_ASSIGN(auto reports, session_.InsertCells("A", cells));
  EXPECT_TRUE(reports.empty());
  EXPECT_EQ(session_.GetArray("A")->NumCells(), 1u);
  EXPECT_TRUE(
      session_.InsertCells("missing", cells).status().IsNotFound());
}

}  // namespace
}  // namespace avm::aql
