#include "ash/util/csv.h"

#include <sstream>

#include <gtest/gtest.h>

namespace ash {
namespace {

TEST(Csv, EscapePassesPlainCellsThrough) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape("1.25"), "1.25");
}

TEST(Csv, EscapeQuotesSpecials) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, RoundTripSimpleDocument) {
  std::ostringstream os;
  write_csv_row(os, {"t_s", "freq_hz", "note"});
  write_csv_row(os, {"0", "3300000", "fresh"});
  write_csv_row(os, {"3600", "3295000", "after 1h, \"hot\""});

  std::istringstream is(os.str());
  const CsvDocument doc = read_csv(is);
  ASSERT_EQ(doc.header.size(), 3u);
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1][2], "after 1h, \"hot\"");
}

TEST(Csv, ReadsCrlfAndMissingTrailingNewline) {
  std::istringstream is("a,b\r\n1,2\r\n3,4");
  const CsvDocument doc = read_csv(is);
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1][1], "4");
}

TEST(Csv, QuotedCellWithEmbeddedNewline) {
  std::istringstream is("a\n\"x\ny\"\n");
  const CsvDocument doc = read_csv(is);
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][0], "x\ny");
}

TEST(Csv, RaggedRowsRejected) {
  std::istringstream is("a,b\n1\n");
  EXPECT_THROW(read_csv(is), std::runtime_error);
}

}  // namespace
}  // namespace ash
