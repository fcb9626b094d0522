#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/file_source.h"
#include "gen/topic_model.h"
#include "gen/tweet_generator.h"
#include "gen/zipf.h"

namespace corrtrack::gen {
namespace {

TEST(Zipf, PmfSumsToOne) {
  ZipfDistribution zipf(10, 0.8);
  double total = 0;
  for (size_t r = 1; r <= 10; ++r) total += zipf.Pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Zipf, PmfIsMonotoneDecreasing) {
  ZipfDistribution zipf(20, 1.2);
  for (size_t r = 2; r <= 20; ++r) {
    EXPECT_LT(zipf.Pmf(r), zipf.Pmf(r - 1));
  }
}

TEST(Zipf, UniformSkewIsUniform) {
  ZipfDistribution zipf(5, 0.0);
  for (size_t r = 1; r <= 5; ++r) EXPECT_NEAR(zipf.Pmf(r), 0.2, 1e-12);
}

TEST(Zipf, SampleFromUniformInverseCdf) {
  ZipfDistribution zipf(4, 1.0);
  // H(4,1) = 1 + 1/2 + 1/3 + 1/4 = 25/12; P(1) = 12/25 = 0.48.
  EXPECT_EQ(zipf.SampleFromUniform(0.0), 1u);
  EXPECT_EQ(zipf.SampleFromUniform(0.47), 1u);
  EXPECT_EQ(zipf.SampleFromUniform(0.49), 2u);
  EXPECT_EQ(zipf.SampleFromUniform(0.999), 4u);
}

TEST(Zipf, EmpiricalFrequencyMatchesPmf) {
  ZipfDistribution zipf(8, 0.25);
  std::mt19937_64 rng(7);
  std::vector<int> counts(9, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (size_t r = 1; r <= 8; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / n, zipf.Pmf(r), 0.01);
  }
}

TEST(Zipf, GeneralizedHarmonic) {
  EXPECT_NEAR(ZipfDistribution::GeneralizedHarmonic(4, 1.0), 25.0 / 12.0,
              1e-12);
  EXPECT_NEAR(ZipfDistribution::GeneralizedHarmonic(3, 0.0), 3.0, 1e-12);
}

TEST(TopicModel, AllocatesDisjointVocabularies) {
  TopicModelConfig config;
  config.num_topics = 10;
  config.tags_per_topic = 5;
  config.joint_vocab_size = 3;
  TopicModel model(config, /*seed=*/1);
  std::set<TagId> seen(model.joint_vocab().begin(),
                       model.joint_vocab().end());
  EXPECT_EQ(seen.size(), 3u);
  for (int t = 0; t < 10; ++t) {
    for (TagId tag : model.topic_vocab(t)) {
      EXPECT_TRUE(seen.insert(tag).second) << "tag reused across topics";
    }
  }
  EXPECT_EQ(model.num_tags(), 53u);
}

TEST(TopicModel, SampleTagStaysInTopicOrJointVocabulary) {
  TopicModelConfig config;
  config.num_topics = 4;
  config.tags_per_topic = 6;
  config.joint_vocab_size = 2;
  config.joint_prob = 0.5;
  TopicModel model(config, 2);
  std::mt19937_64 rng(3);
  const auto& vocab = model.topic_vocab(1);
  const std::set<TagId> allowed_topic(vocab.begin(), vocab.end());
  const std::set<TagId> allowed_joint(model.joint_vocab().begin(),
                                      model.joint_vocab().end());
  bool saw_joint = false;
  for (int i = 0; i < 500; ++i) {
    const TagId tag = model.SampleTag(1, rng);
    const bool in_topic = allowed_topic.count(tag) > 0;
    const bool in_joint = allowed_joint.count(tag) > 0;
    EXPECT_TRUE(in_topic || in_joint);
    saw_joint |= in_joint;
  }
  EXPECT_TRUE(saw_joint);
}

TEST(TopicModel, FreshTagsAreNewAndJoinTheTopic) {
  TopicModelConfig config;
  config.num_topics = 3;
  config.tags_per_topic = 4;
  TopicModel model(config, 4);
  std::mt19937_64 rng(5);
  const TagId before = model.num_tags();
  const TagId fresh = model.AddFreshTag(1, rng);
  EXPECT_EQ(fresh, before);
  EXPECT_EQ(model.num_tags(), before + 1);
  const auto& vocab = model.topic_vocab(1);
  EXPECT_NE(std::find(vocab.begin(), vocab.end(), fresh), vocab.end());
}

TEST(TopicModel, DriftKeepsPermutationValid) {
  TopicModelConfig config;
  config.num_topics = 50;
  TopicModel model(config, 6);
  std::mt19937_64 rng(7);
  model.Drift(/*swaps=*/100, /*promotions=*/5, rng);
  std::set<int> topics;
  for (int i = 0; i < 2000; ++i) topics.insert(model.SampleTopic(rng));
  for (int t : topics) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 50);
  }
}

TEST(TweetGenerator, DeterministicForSameSeed) {
  GeneratorConfig config;
  config.seed = 99;
  TweetGenerator a(config);
  TweetGenerator b(config);
  for (int i = 0; i < 200; ++i) {
    const Document da = a.Next();
    const Document db = b.Next();
    EXPECT_EQ(da.id, db.id);
    EXPECT_EQ(da.time, db.time);
    EXPECT_EQ(da.tags, db.tags);
  }
}

TEST(TweetGenerator, TimestampsNonDecreasingIdsSequential) {
  GeneratorConfig config;
  TweetGenerator g(config);
  Timestamp last = -1;
  for (DocId i = 0; i < 500; ++i) {
    const Document d = g.Next();
    EXPECT_EQ(d.id, i);
    EXPECT_GE(d.time, last);
    last = d.time;
    EXPECT_GE(d.tags.size(), 1u);
    EXPECT_LE(d.tags.size(),
              static_cast<size_t>(config.max_tags_per_tweet));
  }
}

TEST(TweetGenerator, RateControlsArrivalDensity) {
  GeneratorConfig config;
  config.tps = 1300;
  TweetGenerator g(config);
  Document last;
  for (int i = 0; i < 20000; ++i) last = g.Next();
  // 20000 docs at 130 docs/s ~ 154s of virtual time (exponential arrivals).
  const double seconds = static_cast<double>(last.time) / 1000.0;
  EXPECT_NEAR(seconds, 20000 / 130.0, 20.0);
}

TEST(TweetGenerator, DoubleRateHalvesSpan) {
  GeneratorConfig slow;
  slow.tps = 1300;
  GeneratorConfig fast;
  fast.tps = 2600;
  TweetGenerator gs(slow);
  TweetGenerator gf(fast);
  Document ds;
  Document df;
  for (int i = 0; i < 10000; ++i) {
    ds = gs.Next();
    df = gf.Next();
  }
  EXPECT_NEAR(static_cast<double>(ds.time) / df.time, 2.0, 0.2);
}

TEST(TweetGenerator, TagsPerTweetFollowsConditionedZipf) {
  GeneratorConfig config;
  config.event_prob = 0.0;  // Events force >= 2 tags and would skew m.
  TweetGenerator g(config);
  ZipfDistribution reference(
      static_cast<size_t>(config.max_tags_per_tweet),
      config.tags_per_tweet_skew);
  std::map<size_t, int> histogram;
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++histogram[g.Next().tags.size()];
  // Tag-count duplicates collapse sets slightly, so allow loose bounds.
  EXPECT_NEAR(static_cast<double>(histogram[1]) / n, reference.Pmf(1), 0.03);
  EXPECT_NEAR(static_cast<double>(histogram[2]) / n, reference.Pmf(2), 0.04);
  EXPECT_GT(histogram[1], histogram[2]);
  EXPECT_GT(histogram[2], histogram[4]);
}

TEST(TweetGenerator, FreshTagsAppearOverTime) {
  GeneratorConfig config;
  config.fresh_tag_prob = 0.05;
  TweetGenerator g(config);
  const TagId initial = g.topic_model().num_tags();
  for (int i = 0; i < 5000; ++i) g.Next();
  EXPECT_GT(g.topic_model().num_tags(), initial + 100);
}

TEST(TweetGenerator, RenderTextEmbedsAllTags) {
  Document doc;
  doc.id = 7;
  doc.tags = TagSet({3, 11});
  const std::string text = TweetGenerator::RenderText(doc);
  EXPECT_NE(text.find("#t3"), std::string::npos);
  EXPECT_NE(text.find("#t11"), std::string::npos);
}

TEST(FileSource, RoundTripsDocuments) {
  GeneratorConfig config;
  config.seed = 5;
  TweetGenerator g(config);
  std::vector<Document> docs;
  for (int i = 0; i < 300; ++i) docs.push_back(g.Next());
  const std::string path = ::testing::TempDir() + "/corrtrack_docs.tsv";
  ASSERT_TRUE(SaveDocuments(path, docs));
  std::vector<Document> loaded;
  ASSERT_TRUE(LoadDocuments(path, &loaded));
  ASSERT_EQ(loaded.size(), docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(loaded[i].id, docs[i].id);
    EXPECT_EQ(loaded[i].time, docs[i].time);
    EXPECT_EQ(loaded[i].tags, docs[i].tags);
  }
  std::remove(path.c_str());
}

TEST(FileSource, LoadMissingFileFails) {
  std::vector<Document> docs;
  EXPECT_FALSE(LoadDocuments("/nonexistent/path/file.tsv", &docs));
  EXPECT_FALSE(LoadDocuments("x", nullptr));
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(contents.data(), 1, contents.size(), f),
            contents.size());
  ASSERT_EQ(std::fclose(f), 0);
}

/// "1,2,...,n" — n distinct tags.
std::string TagList(int n) {
  std::string tags;
  for (int t = 1; t <= n; ++t) {
    if (t > 1) tags += ',';
    tags += std::to_string(t);
  }
  return tags;
}

TEST(FileSource, LoadMalformedFails) {
  const std::string good = "7\t100\t1,2\n";
  const struct {
    const char* name;
    std::string contents;
    size_t line;  // 1-based line the error must name.
  } kCases[] = {
      {"no fields", "not a valid line\n", 1},
      {"empty line", good + "\n" + good, 2},
      {"missing field", good + "1\t2\n", 2},
      {"extra field", "1\t2\t3\t4\n", 1},
      {"no tags", "1\t2\t\n", 1},
      {"line over 4096 bytes", good + "1\t2\t" + std::string(4100, '1'), 2},
      {"id not numeric", good + good + "x1\t2\t3\n", 3},
      {"id trailing garbage", "1x\t2\t3\n", 1},
      {"id signed", "-1\t2\t3\n", 1},
      {"id leading blank", " 1\t2\t3\n", 1},
      {"id out of range", "18446744073709551616\t2\t3\n", 1},
      {"time not numeric", "1\t2.5\t3\n", 1},
      {"time negative", "1\t-5\t3\n", 1},
      {"time out of range", "1\t9223372036854775808\t3\n", 1},
      {"tag not numeric", good + "1\t2\t3,a\n", 2},
      {"tag empty", "1\t2\t3,,4\n", 1},
      {"tag trailing comma", "1\t2\t3,\n", 1},
      {"tag is the invalid sentinel", "1\t2\t4294967295\n", 1},
      {"tag out of range", "1\t2\t4294967296\n", 1},
      {"embedded NUL", std::string("1\t2\t3\0" "4\n", 8), 1},
      {"17 distinct tags", good + "1\t2\t" + TagList(17) + "\n", 2},
  };
  const std::string path = ::testing::TempDir() + "/corrtrack_bad.tsv";
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    WriteFile(path, c.contents);
    std::vector<Document> docs;
    std::string error;
    EXPECT_FALSE(LoadDocuments(path, &docs, &error));
    EXPECT_TRUE(docs.empty());
    EXPECT_EQ(error.rfind("line " + std::to_string(c.line) + ": ", 0), 0u)
        << error;
  }
  std::remove(path.c_str());
}

TEST(FileSource, LoadAcceptsBoundaryLines) {
  // 16 distinct tags (duplicates collapse), and a line of exactly
  // kMaxDocumentLineBytes with no trailing newline.
  std::string longest = "2\t5\t1";
  while (longest.size() < kMaxDocumentLineBytes) longest += ",1";
  longest.resize(kMaxDocumentLineBytes);
  if (longest.back() == ',') longest.back() = '2';
  const std::string path = ::testing::TempDir() + "/corrtrack_edge.tsv";
  WriteFile(path, "1\t0\t" + TagList(16) + ",16,1\n" + longest);
  std::vector<Document> docs;
  std::string error;
  ASSERT_TRUE(LoadDocuments(path, &docs, &error)) << error;
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs[0].tags.size(), static_cast<size_t>(kMaxTagsPerDocument));
  EXPECT_EQ(docs[1].id, 2u);
  EXPECT_EQ(docs[1].time, 5);
  std::remove(path.c_str());
}

TEST(FileSource, MutatedLinesNeverAbort) {
  // Seeded fuzz: valid lines with a few bytes replaced, inserted or
  // deleted (biased toward the format's own delimiters and digits). Every
  // load either fails with a line-numbered error or yields only tagsets
  // the subset enumerator can take — never an abort, and never an OOB
  // read (ASan job).
  GeneratorConfig config;
  config.seed = 9;
  TweetGenerator g(config);
  std::vector<Document> seeds;
  for (int i = 0; i < 64; ++i) seeds.push_back(g.Next());
  const std::string path = ::testing::TempDir() + "/corrtrack_fuzz.tsv";
  ASSERT_TRUE(SaveDocuments(path, seeds));
  std::vector<std::string> lines;
  {
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buffer[256];
    while (std::fgets(buffer, sizeof(buffer), f) != nullptr) {
      lines.emplace_back(buffer);
    }
    std::fclose(f);
  }
  ASSERT_EQ(lines.size(), seeds.size());

  const std::string kInteresting("\t,\n-+ 0123456789\0\xff", 18);
  std::mt19937 rng(20141024);
  std::uniform_int_distribution<int> byte(0, 255);
  size_t loaded = 0;
  for (int round = 0; round < 20000; ++round) {
    std::string contents = lines[rng() % lines.size()];
    if (round % 4 == 0) contents += lines[rng() % lines.size()];
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations; ++m) {
      const char c = rng() % 2 == 0
                         ? kInteresting[rng() % kInteresting.size()]
                         : static_cast<char>(byte(rng));
      const size_t at = rng() % (contents.size() + 1);
      switch (rng() % 3) {
        case 0:
          if (at < contents.size()) contents[at] = c;
          break;
        case 1:
          contents.insert(at, 1, c);
          break;
        default:
          if (at < contents.size()) contents.erase(at, 1);
          break;
      }
    }
    WriteFile(path, contents);
    std::vector<Document> docs;
    std::string error;
    if (LoadDocuments(path, &docs, &error)) {
      ++loaded;
      for (const Document& doc : docs) {
        EXPECT_GE(doc.tags.size(), 1u);
        EXPECT_LE(doc.tags.size(), static_cast<size_t>(kMaxTagsPerDocument));
        EXPECT_GE(doc.time, 0);
      }
    } else {
      EXPECT_TRUE(docs.empty());
      EXPECT_EQ(error.rfind("line ", 0), 0u) << error;
    }
  }
  // Both outcomes are exercised (a digit swapped for a digit still loads).
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, 20000u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace corrtrack::gen
