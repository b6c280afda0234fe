// The OPEN ensemble-spec grammar: detection, parsing, canonical rendering,
// and the InvalidArgument surface the server turns into ERR frames.
#include "fusion/spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/error.hpp"

namespace adiv::fusion {
namespace {

TEST(EnsembleSpec, DetectsSpecTokensWithoutThrowing) {
    EXPECT_TRUE(is_ensemble_spec("stide/6+markov/6"));
    EXPECT_TRUE(is_ensemble_spec("a+b;fuse=ds"));
    EXPECT_TRUE(is_ensemble_spec("model=a+b"));
    EXPECT_TRUE(is_ensemble_spec("plain;fuse=union"));  // malformed, but a spec
    EXPECT_FALSE(is_ensemble_spec("default"));
    EXPECT_FALSE(is_ensemble_spec("stide/6"));
    EXPECT_FALSE(is_ensemble_spec("/path/to/model.adiv"));
    EXPECT_FALSE(is_ensemble_spec(""));
}

TEST(EnsembleSpec, ParsesMembersAndDefaults) {
    const EnsembleSpec spec = parse_ensemble_spec("stide/6+markov/6");
    ASSERT_EQ(spec.members.size(), 2u);
    EXPECT_EQ(spec.members[0], "stide/6");
    EXPECT_EQ(spec.members[1], "markov/6");
    EXPECT_EQ(spec.fuse, FusionKind::Union);
    EXPECT_DOUBLE_EQ(spec.target_fa, 0.01);
    EXPECT_EQ(spec.votes_needed, 0u);
    EXPECT_DOUBLE_EQ(spec.decay, 0.999);
    EXPECT_EQ(spec.calibrate_every, 64u);
    EXPECT_DOUBLE_EQ(spec.ds_discount, 0.9);
    EXPECT_DOUBLE_EQ(spec.ds_threshold, 0.95);
}

TEST(EnsembleSpec, ParsesModelPrefixAndAllOptions) {
    const EnsembleSpec spec = parse_ensemble_spec(
        "model=a+b+c;fuse=vote;fa=0.05;k=2;decay=0.99;every=32");
    ASSERT_EQ(spec.members.size(), 3u);
    EXPECT_EQ(spec.fuse, FusionKind::Vote);
    EXPECT_DOUBLE_EQ(spec.target_fa, 0.05);
    EXPECT_EQ(spec.votes_needed, 2u);
    EXPECT_DOUBLE_EQ(spec.decay, 0.99);
    EXPECT_EQ(spec.calibrate_every, 32u);
}

TEST(EnsembleSpec, ParsesDempsterShaferOptions) {
    const EnsembleSpec spec = parse_ensemble_spec("a+b;fuse=ds;w=0.8;dst=0.9");
    EXPECT_EQ(spec.fuse, FusionKind::DempsterShafer);
    EXPECT_DOUBLE_EQ(spec.ds_discount, 0.8);
    EXPECT_DOUBLE_EQ(spec.ds_threshold, 0.9);
}

TEST(EnsembleSpec, FusionKindNamesRoundTrip) {
    for (const FusionKind kind :
         {FusionKind::Union, FusionKind::Intersect, FusionKind::Vote,
          FusionKind::DempsterShafer})
        EXPECT_EQ(parse_fusion_kind(fusion_kind_name(kind)), kind);
    EXPECT_THROW((void)parse_fusion_kind("quorum"), InvalidArgument);
}

TEST(EnsembleSpec, RejectsMalformedMemberLists) {
    EXPECT_THROW((void)parse_ensemble_spec(""), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("stide/6"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("model="), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a+"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("+a"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a++b"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a+b c"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a+a"), InvalidArgument);  // dup
}

TEST(EnsembleSpec, RejectsMalformedOptions) {
    EXPECT_THROW((void)parse_ensemble_spec("a+b;"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a+b;fuse"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a+b;fuse=quorum"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a+b;bogus=1"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a+b;fa=0"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a+b;fa=1"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a+b;fa=0.5x"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a+b;k=0"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a+b;k=3"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a+b;every=0"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a+b;fa=0.01;fa=0.02"),
                 InvalidArgument);
    // The one number grammar: no `+`, no hex, nothing beyond the type.
    EXPECT_THROW((void)parse_ensemble_spec("a+b;fa=+0.5"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a+b;fa=0x1p-2"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a+b;k=+1"), InvalidArgument);
    EXPECT_THROW((void)parse_ensemble_spec("a+b;every=18446744073709551616"),
                 InvalidArgument);
}

TEST(EnsembleSpec, CanonicalRendersOnlyRuleRelevantOptions) {
    // Union reads no options: a spec carrying vote/ds settings still renders
    // as the bare rule, and two specs that fuse identically render the same.
    EXPECT_EQ(canonical(parse_ensemble_spec("a+b;w=0.5")), "a+b;fuse=union");
    EXPECT_EQ(canonical(parse_ensemble_spec("model=a+b")), "a+b;fuse=union");
    EXPECT_EQ(canonical(parse_ensemble_spec("a+b;fuse=intersect")),
              "a+b;fuse=intersect");
    EXPECT_EQ(canonical(parse_ensemble_spec("a+b;fuse=vote")),
              "a+b;fuse=vote;fa=0.01;decay=0.999;every=64");
    EXPECT_EQ(canonical(parse_ensemble_spec("a+b;fuse=vote;k=1;fa=0.2")),
              "a+b;fuse=vote;fa=0.2;k=1;decay=0.999;every=64");
    EXPECT_EQ(canonical(parse_ensemble_spec("a+b;fuse=ds")),
              "a+b;fuse=ds;w=0.9;dst=0.95");
}

TEST(EnsembleSpec, CanonicalIsAParseFixpoint) {
    for (const char* token :
         {"stide/6+markov/6", "a+b+c;fuse=intersect",
          "a+b;fuse=vote;fa=0.05;k=2;decay=0.9;every=16",
          "a+b;fuse=ds;w=0.7;dst=0.99"}) {
        const std::string canon = canonical(parse_ensemble_spec(token));
        EXPECT_EQ(canonical(parse_ensemble_spec(canon)), canon) << token;
    }
}

TEST(EnsembleSpec, CanonicalPreservesEveryOptionValue) {
    // OPENED echoes canonical(); re-OPENing the echo must land on the same
    // options bit for bit, not on a six-digit rounding of them.
    const double below_one = std::nextafter(1.0, 0.0);
    const double denorm = std::numeric_limits<double>::denorm_min();
    EnsembleSpec vote;
    vote.members = {"a", "b", "c"};
    vote.fuse = FusionKind::Vote;
    vote.votes_needed = 3;
    vote.calibrate_every = std::numeric_limits<std::size_t>::max();
    EnsembleSpec ds;
    ds.members = {"a", "b"};
    ds.fuse = FusionKind::DempsterShafer;
    std::vector<EnsembleSpec> specs;
    for (const double value : {0.9999999, 0.1234567, below_one, denorm}) {
        vote.target_fa = value;
        vote.decay = value;
        specs.push_back(vote);
        ds.ds_discount = value;
        ds.ds_threshold = value;
        specs.push_back(ds);
    }
    vote.decay = 1.0;
    specs.push_back(vote);
    for (const EnsembleSpec& spec : specs) {
        const std::string canon = canonical(spec);
        EXPECT_TRUE(parse_ensemble_spec(canon) == spec) << canon;
    }
    vote.target_fa = 0.9999999;
    EXPECT_EQ(canonical(vote),
              "a+b+c;fuse=vote;fa=0.9999999;k=3;decay=1;"
              "every=18446744073709551615");
}

}  // namespace
}  // namespace adiv::fusion
