#include "ash/util/flags.h"

#include <gtest/gtest.h>

namespace ash {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, ParsesSpaceAndEqualsForms) {
  const auto f = parse({"--temp", "110", "--volts=-0.3"});
  EXPECT_EQ(f.get("temp", 0), 110);
  EXPECT_DOUBLE_EQ(f.get("volts", 0.0), -0.3);
}

TEST(Flags, BooleanForms) {
  const auto f = parse({"--fast", "--verbose=false", "--strict=yes"});
  EXPECT_TRUE(f.get("fast", false));
  EXPECT_FALSE(f.get("verbose", true));
  EXPECT_TRUE(f.get("strict", false));
  EXPECT_FALSE(f.get("absent", false));
}

TEST(Flags, PositionalArgumentsSurvive) {
  const auto f = parse({"campaign", "--out", "dir", "extra"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "campaign");
  EXPECT_EQ(f.positional()[1], "extra");
}

TEST(Flags, DefaultsWhenAbsent) {
  const auto f = parse({});
  EXPECT_EQ(f.get("stages", 75), 75);
  EXPECT_EQ(f.get("name", std::string("x")), "x");
  EXPECT_FALSE(f.has("stages"));
}

TEST(Flags, NegativeNumberAsValueIsNotAFlag) {
  const auto f = parse({"--volts", "-0.3"});
  EXPECT_DOUBLE_EQ(f.get("volts", 0.0), -0.3);
}

TEST(Flags, TypeErrorsThrow) {
  const auto f = parse({"--temp", "hot", "--n", "3.5"});
  EXPECT_THROW(f.get("temp", 0.0), std::invalid_argument);
  EXPECT_THROW(f.get("n", 0), std::invalid_argument);
  EXPECT_THROW(f.get("temp", false), std::invalid_argument);
}

TEST(Flags, NumbersAreReadWhole) {
  const auto f = parse({"--temp", "nan", "--hours", "inf", "--pad", " 5",
                        "--plus", "+5", "--hex", "0x10", "--big",
                        "99999999999", "--ok", "-40.5"});
  for (const char* name : {"temp", "hours", "pad", "plus", "hex"}) {
    EXPECT_THROW(f.get(name, 0.0), std::invalid_argument) << name;
  }
  EXPECT_THROW(f.get("pad", 0), std::invalid_argument);
  EXPECT_THROW(f.get("plus", 0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(f.get("big", 0.0), 99999999999.0);
  EXPECT_DOUBLE_EQ(f.get("ok", 0.0), -40.5);
}

TEST(Flags, UnknownFlagCheck) {
  const auto f = parse({"--chp", "5"});
  EXPECT_THROW(f.check_known({"chip", "out"}), std::invalid_argument);
  EXPECT_NO_THROW(f.check_known({"chp"}));
}

TEST(Flags, BareDoubleDashRejected) {
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

}  // namespace
}  // namespace ash
