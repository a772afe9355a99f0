// Unit coverage of the tiered state store (docs/INTERNALS.md §13): file
// framing, the base+delta checkpoint chain, the spill segment tier, and
// the checkpoint service thread. The torn-write suites truncate and
// bit-flip files at fuzzed offsets and assert recovery always degrades to
// an older consistent chain with a clean Status — never a crash, never a
// silently corrupt payload.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "store/checkpoint_service.h"
#include "store/format.h"
#include "store/spill.h"
#include "store/state_store.h"
#include "text/record.h"

namespace dssj::store {
namespace {

/// Unique per-test scratch directory, removed on destruction.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string tmpl = ::testing::TempDir() + "dssj_store_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* made = mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : tmpl;
  }
  ~ScopedTempDir() { RemoveTree(path_); }

  const std::string& path() const { return path_; }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

std::string ReadAll(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok()) << path;
  return bytes;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok()) << path;
}

std::vector<std::string> List(const std::string& dir) {
  std::vector<std::string> names;
  EXPECT_TRUE(ListStoreFiles(dir, &names).ok());
  std::sort(names.begin(), names.end());
  return names;
}

// --- Checkpoint file framing --------------------------------------------

TEST(CheckpointFileFormat, RoundTripsKindEpochPayload) {
  const std::string payload = "the quick brown fox\0with embedded nul";
  std::string image;
  EncodeCheckpointFile(CheckpointKind::kDelta, 41, payload, &image);
  CheckpointKind kind = CheckpointKind::kBase;
  uint64_t epoch = 0;
  std::string out;
  ASSERT_TRUE(DecodeCheckpointFile(image.data(), image.size(), &kind, &epoch, &out).ok());
  EXPECT_EQ(kind, CheckpointKind::kDelta);
  EXPECT_EQ(epoch, 41u);
  EXPECT_EQ(out, payload);
}

TEST(CheckpointFileFormat, RejectsEveryTruncationCleanly) {
  std::string image;
  EncodeCheckpointFile(CheckpointKind::kBase, 7, std::string(300, 'x'), &image);
  for (size_t len = 0; len < image.size(); ++len) {
    CheckpointKind kind;
    uint64_t epoch;
    std::string payload;
    const Status st = DecodeCheckpointFile(image.data(), len, &kind, &epoch, &payload);
    EXPECT_FALSE(st.ok()) << "truncation to " << len << " bytes accepted";
  }
}

TEST(CheckpointFileFormat, RejectsEverySingleBitFlip) {
  std::string image;
  EncodeCheckpointFile(CheckpointKind::kBase, 3, "checksummed payload bytes", &image);
  for (size_t i = 0; i < image.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = image;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      CheckpointKind kind;
      uint64_t epoch;
      std::string payload;
      const Status st =
          DecodeCheckpointFile(flipped.data(), flipped.size(), &kind, &epoch, &payload);
      // A flip in the header's epoch field still checks out only if the
      // payload checksum covers it — it does not, so tolerate a decode
      // that "succeeds" only when kind+epoch+payload all survived intact.
      if (st.ok()) {
        EXPECT_EQ(payload, "checksummed payload bytes")
            << "bit flip at byte " << i << " bit " << bit << " corrupted the payload silently";
      }
    }
  }
}

TEST(SegmentFrameFormat, SequentialScanAndTornTail) {
  std::string file;
  std::vector<size_t> offsets;
  for (int i = 0; i < 5; ++i) {
    offsets.push_back(file.size());
    AppendSegmentFrame(std::string(static_cast<size_t>(10 + i * 7), static_cast<char>('a' + i)),
                       &file);
  }
  size_t off = 0;
  for (int i = 0; i < 5; ++i) {
    std::string payload;
    size_t end = 0;
    ASSERT_TRUE(ReadSegmentFrame(file.data(), file.size(), off, &payload, &end).ok());
    EXPECT_EQ(payload, std::string(static_cast<size_t>(10 + i * 7), static_cast<char>('a' + i)));
    off = end;
  }
  EXPECT_EQ(off, file.size());
  // A torn tail: every truncation point inside the last frame must reject
  // that frame but leave the earlier ones readable.
  for (size_t len = offsets.back(); len < file.size(); ++len) {
    std::string payload;
    size_t end = 0;
    EXPECT_FALSE(ReadSegmentFrame(file.data(), len, offsets.back(), &payload, &end).ok());
    ASSERT_TRUE(ReadSegmentFrame(file.data(), len, offsets[3], &payload, &end).ok());
  }
}

TEST(StoreFileNames, ParseRoundTrip) {
  int kind = -1;
  uint64_t id = 0;
  ASSERT_TRUE(ParseStoreFileName(BaseFileName(123), &kind, &id));
  EXPECT_EQ(kind, 0);
  EXPECT_EQ(id, 123u);
  ASSERT_TRUE(ParseStoreFileName(DeltaFileName(7), &kind, &id));
  EXPECT_EQ(kind, 1);
  EXPECT_EQ(id, 7u);
  ASSERT_TRUE(ParseStoreFileName(SegmentFileName(9), &kind, &id));
  EXPECT_EQ(kind, 2);
  EXPECT_EQ(id, 9u);
  EXPECT_FALSE(ParseStoreFileName("README.md", &kind, &id));
  EXPECT_FALSE(ParseStoreFileName("base_.ckpt", &kind, &id));
}

// --- StateStore chain composition ---------------------------------------

TEST(StateStoreTest, ComposesNewestBasePlusContiguousDeltas) {
  ScopedTempDir tmp;
  StateStore store(tmp.Sub("task"));
  ASSERT_TRUE(store.WriteBase(0, "B0").ok());
  ASSERT_TRUE(store.WriteDelta(1, "D1").ok());
  ASSERT_TRUE(store.WriteDelta(2, "D2").ok());
  ASSERT_TRUE(store.WriteBase(3, "B3").ok());
  ASSERT_TRUE(store.WriteDelta(4, "D4").ok());
  ASSERT_TRUE(store.WriteDelta(5, "D5").ok());
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  ASSERT_TRUE(chain.valid);
  EXPECT_EQ(chain.base, "B3");
  EXPECT_EQ(chain.epoch, 5u);
  EXPECT_EQ(chain.deltas, (std::vector<std::string>{"D4", "D5"}));
  // WriteBase(3) must have reclaimed the epoch<3 files.
  const std::vector<std::string> names = List(store.dir());
  EXPECT_EQ(names, (std::vector<std::string>{BaseFileName(3), DeltaFileName(4),
                                             DeltaFileName(5)}));
}

TEST(StateStoreTest, CorruptNewestDeltaTruncatesChain) {
  ScopedTempDir tmp;
  StateStore store(tmp.Sub("task"));
  ASSERT_TRUE(store.WriteBase(0, "B0").ok());
  ASSERT_TRUE(store.WriteDelta(1, "D1").ok());
  ASSERT_TRUE(store.WriteDelta(2, "D2").ok());
  const std::string d2 = store.dir() + "/" + DeltaFileName(2);
  std::string bytes = ReadAll(d2);
  bytes.resize(bytes.size() / 2);  // torn write
  WriteAll(d2, bytes);
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  ASSERT_TRUE(chain.valid);
  EXPECT_EQ(chain.base, "B0");
  EXPECT_EQ(chain.epoch, 1u);
  EXPECT_EQ(chain.deltas, (std::vector<std::string>{"D1"}));
}

TEST(StateStoreTest, CorruptMiddleDeltaStopsBeforeIt) {
  ScopedTempDir tmp;
  StateStore store(tmp.Sub("task"));
  ASSERT_TRUE(store.WriteBase(0, "B0").ok());
  ASSERT_TRUE(store.WriteDelta(1, "D1").ok());
  ASSERT_TRUE(store.WriteDelta(2, "D2").ok());
  ASSERT_TRUE(store.WriteDelta(3, "D3").ok());
  const std::string d2 = store.dir() + "/" + DeltaFileName(2);
  std::string bytes = ReadAll(d2);
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x10);
  WriteAll(d2, bytes);
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  ASSERT_TRUE(chain.valid);
  // D3 is intact but unreachable: deltas must be contiguous from the base.
  EXPECT_EQ(chain.epoch, 1u);
  EXPECT_EQ(chain.deltas, (std::vector<std::string>{"D1"}));
}

TEST(StateStoreTest, CorruptBaseFallsBackToOlderBase) {
  ScopedTempDir tmp;
  StateStore store(tmp.Sub("task"));
  ASSERT_TRUE(store.WriteBase(0, "B0").ok());
  ASSERT_TRUE(store.WriteDelta(1, "D1").ok());
  // Write the newer base WITHOUT the GC (simulate by writing the file by
  // hand) so the older chain is still on disk to fall back to — matching
  // the real crash window between base write and GC.
  std::string image;
  EncodeCheckpointFile(CheckpointKind::kBase, 2, "B2", &image);
  image[image.size() / 2] = static_cast<char>(image[image.size() / 2] ^ 0x01);
  WriteAll(store.dir() + "/" + BaseFileName(2), image);
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  ASSERT_TRUE(chain.valid);
  EXPECT_EQ(chain.base, "B0");
  EXPECT_EQ(chain.deltas, (std::vector<std::string>{"D1"}));
}

TEST(StateStoreTest, NothingValidIsCleanNotFatal) {
  ScopedTempDir tmp;
  StateStore store(tmp.Sub("task"));
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());  // missing dir
  EXPECT_FALSE(chain.valid);
  ASSERT_TRUE(store.WriteBase(0, "B0").ok());
  WriteAll(store.dir() + "/" + BaseFileName(0), "garbage");
  ASSERT_TRUE(store.Recover(&chain).ok());
  EXPECT_FALSE(chain.valid);
}

TEST(StateStoreTest, TruncateLeavesDirEmpty) {
  ScopedTempDir tmp;
  StateStore store(tmp.Sub("task"));
  ASSERT_TRUE(store.WriteBase(0, "B0").ok());
  ASSERT_TRUE(store.WriteDelta(1, "D1").ok());
  ASSERT_TRUE(store.Truncate().ok());
  EXPECT_TRUE(List(store.dir()).empty());
}

/// Fuzz: a chain of several epochs, then truncate or bit-flip one file at
/// a random offset. Recovery must always return OK with either the full
/// chain (payload-epoch prefix intact) or a shorter consistent prefix —
/// and every recovered payload must be one of the originals, bit-exact.
TEST(StateStoreTest, TornWriteFuzz) {
  std::mt19937 rng(20260809);
  for (int iter = 0; iter < 60; ++iter) {
    ScopedTempDir tmp;
    StateStore store(tmp.Sub("task"));
    std::vector<std::string> payloads;
    ASSERT_TRUE(store.WriteBase(0, "base-payload-0").ok());
    payloads.push_back("base-payload-0");
    for (uint64_t e = 1; e <= 4; ++e) {
      std::string p = "delta-payload-" + std::to_string(e);
      p.append(static_cast<size_t>(rng() % 100), '#');
      ASSERT_TRUE(store.WriteDelta(e, p).ok());
      payloads.push_back(std::move(p));
    }
    // Pick a victim file and damage it.
    const std::vector<std::string> names = List(store.dir());
    const std::string victim = store.dir() + "/" + names[rng() % names.size()];
    std::string bytes = ReadAll(victim);
    ASSERT_FALSE(bytes.empty());
    if (rng() % 2 == 0) {
      bytes.resize(rng() % bytes.size());  // torn write
    } else {
      const size_t i = rng() % bytes.size();
      bytes[i] = static_cast<char>(bytes[i] ^ (1u << (rng() % 8)));  // bit flip
    }
    WriteAll(victim, bytes);
    RecoveredChain chain;
    ASSERT_TRUE(store.Recover(&chain).ok()) << "iter " << iter;
    if (!chain.valid) continue;  // base was the victim
    ASSERT_LE(chain.epoch, 4u);
    EXPECT_EQ(chain.base, payloads[0]);
    ASSERT_EQ(chain.deltas.size(), static_cast<size_t>(chain.epoch));
    for (size_t i = 0; i < chain.deltas.size(); ++i) {
      EXPECT_EQ(chain.deltas[i], payloads[i + 1]) << "iter " << iter;
    }
  }
}

// --- In-memory StateStore (empty dir) -----------------------------------

TEST(MemoryStateStoreTest, EmptyStoreIsNotValid) {
  StateStore store("");
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  EXPECT_FALSE(chain.valid);
  EXPECT_TRUE(chain.deltas.empty());
}

TEST(MemoryStateStoreTest, RecoverReturnsBasePlusContiguousDeltasInOrder) {
  StateStore store("");
  ASSERT_TRUE(store.WriteBase(0, "B0").ok());
  ASSERT_TRUE(store.WriteDelta(1, "D1").ok());
  ASSERT_TRUE(store.WriteDelta(2, "D2").ok());
  ASSERT_TRUE(store.WriteDelta(4, "D4").ok());  // gap: not composable
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  ASSERT_TRUE(chain.valid);
  EXPECT_EQ(chain.base, "B0");
  EXPECT_EQ(chain.epoch, 2u);
  EXPECT_EQ(chain.deltas, (std::vector<std::string>{"D1", "D2"}));
}

TEST(MemoryStateStoreTest, WriteBaseDropsOlderEpochs) {
  StateStore store("");
  ASSERT_TRUE(store.WriteBase(0, "B0").ok());
  ASSERT_TRUE(store.WriteDelta(1, "D1").ok());
  ASSERT_TRUE(store.WriteBase(2, "B2").ok());
  ASSERT_TRUE(store.WriteDelta(3, "D3").ok());
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  ASSERT_TRUE(chain.valid);
  EXPECT_EQ(chain.base, "B2");
  EXPECT_EQ(chain.epoch, 3u);
  EXPECT_EQ(chain.deltas, (std::vector<std::string>{"D3"}));
}

TEST(MemoryStateStoreTest, TruncateEmptiesIt) {
  StateStore store("");
  ASSERT_TRUE(store.WriteBase(0, "B0").ok());
  ASSERT_TRUE(store.WriteDelta(1, "D1").ok());
  ASSERT_TRUE(store.Truncate().ok());
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  EXPECT_FALSE(chain.valid);
  // A delta with no base under it is not composable either.
  ASSERT_TRUE(store.WriteDelta(2, "D2").ok());
  ASSERT_TRUE(store.Recover(&chain).ok());
  EXPECT_FALSE(chain.valid);
}

// --- SpillStore ---------------------------------------------------------

TEST(SpillStoreTest, AppendReadReleaseRoundTrip) {
  ScopedTempDir tmp;
  std::unique_ptr<SpillStore> spill;
  ASSERT_TRUE(
      SpillStore::Open(tmp.Sub("spill"), 1 << 20, SpillStore::GcPolicy::kDeferred, &spill)
          .ok());
  std::vector<SpillHandle> handles;
  for (int i = 0; i < 20; ++i) {
    SpillHandle h;
    ASSERT_TRUE(spill->Append("payload-" + std::to_string(i), &h).ok());
    handles.push_back(h);
  }
  EXPECT_GT(spill->live_bytes(), 0u);
  for (int i = 0; i < 20; ++i) {
    std::string payload;
    ASSERT_TRUE(spill->Read(handles[static_cast<size_t>(i)], &payload).ok());
    EXPECT_EQ(payload, "payload-" + std::to_string(i));
  }
  for (const SpillHandle& h : handles) spill->Release(h);
  EXPECT_EQ(spill->live_bytes(), 0u);
}

TEST(SpillStoreTest, DeferredGcWaitsForRetireMark) {
  ScopedTempDir tmp;
  std::unique_ptr<SpillStore> spill;
  ASSERT_TRUE(
      SpillStore::Open(tmp.Sub("spill"), 64, SpillStore::GcPolicy::kDeferred, &spill).ok());
  std::vector<SpillHandle> handles;
  for (int i = 0; i < 30; ++i) {
    SpillHandle h;
    ASSERT_TRUE(spill->Append(std::string(40, 'z'), &h).ok());
    handles.push_back(h);
  }
  const size_t files_before = List(spill->dir()).size();
  EXPECT_GT(files_before, 1u) << "segment rotation never happened";
  for (size_t i = 0; i + 1 < handles.size(); ++i) spill->Release(handles[i]);
  // Deferred: retired segments stay on disk until the owner confirms a
  // base checkpoint past the retirement.
  EXPECT_EQ(List(spill->dir()).size(), files_before);
  const uint64_t mark = spill->TakeRetireMark();
  ASSERT_TRUE(spill->DeleteRetiredBefore(mark).ok());
  EXPECT_LE(List(spill->dir()).size(), 2u);
}

TEST(SpillStoreTest, ReopenRerefPurgeCycle) {
  ScopedTempDir tmp;
  const std::string dir = tmp.Sub("spill");
  std::vector<SpillHandle> handles;
  {
    std::unique_ptr<SpillStore> spill;
    ASSERT_TRUE(SpillStore::Open(dir, 64, SpillStore::GcPolicy::kDeferred, &spill).ok());
    for (int i = 0; i < 12; ++i) {
      SpillHandle h;
      ASSERT_TRUE(spill->Append("frame-" + std::to_string(i), &h).ok());
      handles.push_back(h);
    }
  }
  // New incarnation: frames come back unclaimed; restore claims the first
  // half (so the tail segments end up with no claimed frames at all).
  std::unique_ptr<SpillStore> spill;
  ASSERT_TRUE(SpillStore::Open(dir, 64, SpillStore::GcPolicy::kDeferred, &spill).ok());
  const size_t claimed = handles.size() / 2;
  for (size_t i = 0; i < claimed; ++i) {
    ASSERT_TRUE(spill->Reref(handles[i])) << i;
  }
  SpillHandle bogus;
  bogus.segment = 99;
  bogus.offset = 0;
  bogus.length = 5;
  EXPECT_FALSE(spill->Reref(bogus));
  const size_t files_before = List(dir).size();
  ASSERT_TRUE(spill->PurgeUnclaimed().ok());
  // Claimed frames read back bit-exact; unclaimed ones lost their claim
  // (a late Reref must fail) and fully-unclaimed segment files are gone.
  for (size_t i = 0; i < claimed; ++i) {
    std::string payload;
    ASSERT_TRUE(spill->Read(handles[i], &payload).ok()) << i;
    EXPECT_EQ(payload, "frame-" + std::to_string(i));
  }
  for (size_t i = claimed; i < handles.size(); ++i) {
    EXPECT_FALSE(spill->Reref(handles[i])) << "purged frame " << i << " re-claimed";
  }
  EXPECT_LT(List(dir).size(), files_before) << "tail segments with no claims kept on disk";
}

TEST(SpillStoreTest, TornSegmentFuzzNeverCrashes) {
  std::mt19937 rng(77);
  for (int iter = 0; iter < 40; ++iter) {
    ScopedTempDir tmp;
    const std::string dir = tmp.Sub("spill");
    std::vector<SpillHandle> handles;
    std::vector<std::string> payloads;
    {
      std::unique_ptr<SpillStore> spill;
      ASSERT_TRUE(SpillStore::Open(dir, 200, SpillStore::GcPolicy::kDeferred, &spill).ok());
      for (int i = 0; i < 15; ++i) {
        std::string p(20 + rng() % 60, static_cast<char>('A' + i));
        SpillHandle h;
        ASSERT_TRUE(spill->Append(p, &h).ok());
        handles.push_back(h);
        payloads.push_back(std::move(p));
      }
    }
    // Damage one segment file at a fuzzed offset.
    const std::vector<std::string> names = List(dir);
    ASSERT_FALSE(names.empty());
    const std::string victim = dir + "/" + names[rng() % names.size()];
    std::string bytes = ReadAll(victim);
    ASSERT_FALSE(bytes.empty());
    if (rng() % 2 == 0) {
      bytes.resize(rng() % bytes.size());
    } else {
      const size_t i = rng() % bytes.size();
      bytes[i] = static_cast<char>(bytes[i] ^ (1u << (rng() % 8)));
    }
    WriteAll(victim, bytes);
    // Reopen: Open must scan cleanly; each surviving frame must Reref and
    // read back bit-exact, each damaged frame must fail cleanly.
    std::unique_ptr<SpillStore> spill;
    ASSERT_TRUE(SpillStore::Open(dir, 200, SpillStore::GcPolicy::kDeferred, &spill).ok())
        << "iter " << iter;
    for (size_t i = 0; i < handles.size(); ++i) {
      if (!spill->Reref(handles[i])) continue;
      std::string payload;
      const Status st = spill->Read(handles[i], &payload);
      if (st.ok()) {
        EXPECT_EQ(payload, payloads[i]) << "iter " << iter << " frame " << i;
      }
    }
  }
}

TEST(SpillStoreTest, ReadsTheActiveSegmentsLastFrameRightAfterAppend) {
  ScopedTempDir tmp;
  std::unique_ptr<SpillStore> spill;
  ASSERT_TRUE(
      SpillStore::Open(tmp.Sub("spill"), 256, SpillStore::GcPolicy::kDeferred, &spill).ok());
  // Lengths cross the one-byte varint boundary (127/128) so the header
  // size the reader computes is exercised both ways.
  for (const size_t len : {size_t{1}, size_t{127}, size_t{128}, size_t{300}, size_t{5}}) {
    const std::string payload(len, static_cast<char>('a' + len % 26));
    SpillHandle h;
    ASSERT_TRUE(spill->Append(payload, &h).ok());
    std::string back;
    ASSERT_TRUE(spill->Read(h, &back).ok()) << "len " << len;
    EXPECT_EQ(back, payload);
  }
}

TEST(SpillStoreTest, ReadsInheritedFramesAfterReopenAndReref) {
  ScopedTempDir tmp;
  const std::string dir = tmp.Sub("spill");
  std::vector<SpillHandle> handles;
  {
    std::unique_ptr<SpillStore> spill;
    ASSERT_TRUE(SpillStore::Open(dir, 64, SpillStore::GcPolicy::kDeferred, &spill).ok());
    for (int i = 0; i < 8; ++i) {
      SpillHandle h;
      ASSERT_TRUE(spill->Append("inherited-" + std::to_string(i), &h).ok());
      handles.push_back(h);
    }
  }
  std::unique_ptr<SpillStore> spill;
  ASSERT_TRUE(SpillStore::Open(dir, 64, SpillStore::GcPolicy::kDeferred, &spill).ok());
  for (size_t i = 0; i < handles.size(); ++i) {
    ASSERT_TRUE(spill->Reref(handles[i])) << i;
    std::string payload;
    ASSERT_TRUE(spill->Read(handles[i], &payload).ok()) << i;
    EXPECT_EQ(payload, "inherited-" + std::to_string(i));
  }
  // New appends go to a fresh segment and read back beside the old ones.
  SpillHandle fresh;
  ASSERT_TRUE(spill->Append("fresh", &fresh).ok());
  EXPECT_GT(fresh.segment, handles.back().segment);
  std::string payload;
  ASSERT_TRUE(spill->Read(fresh, &payload).ok());
  EXPECT_EQ(payload, "fresh");
}

// Damage lands in the file the open store already reads through its
// descriptor (in place, not by replacing the file).
TEST(SpillStoreTest, DamageUnderAnOpenStoreIsACleanError) {
  for (const bool truncate : {false, true}) {
    ScopedTempDir tmp;
    std::unique_ptr<SpillStore> spill;
    ASSERT_TRUE(
        SpillStore::Open(tmp.Sub("spill"), 1 << 20, SpillStore::GcPolicy::kDeferred, &spill)
            .ok());
    std::vector<SpillHandle> handles;
    for (int i = 0; i < 3; ++i) {
      SpillHandle h;
      ASSERT_TRUE(spill->Append(std::string(50, static_cast<char>('p' + i)), &h).ok());
      handles.push_back(h);
    }
    const std::vector<std::string> names = List(spill->dir());
    ASSERT_EQ(names.size(), 1u);
    const std::string path = spill->dir() + "/" + names[0];
    const SpillHandle& victim = handles[1];
    if (truncate) {
      // Cut the middle frame's payload short; the later frame goes too.
      ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(victim.offset + 20)), 0);
    } else {
      std::FILE* f = std::fopen(path.c_str(), "r+b");
      ASSERT_NE(f, nullptr);
      const long last_byte = static_cast<long>(
          victim.offset + SegmentFrameBytes(victim.length) - 1);
      ASSERT_EQ(std::fseek(f, last_byte, SEEK_SET), 0);
      ASSERT_EQ(std::fputc('!', f), '!');
      std::fclose(f);
    }
    std::string payload;
    EXPECT_TRUE(spill->Read(handles[0], &payload).ok()) << "an undamaged frame failed";
    EXPECT_EQ(payload, std::string(50, 'p'));
    const Status st = spill->Read(victim, &payload);
    EXPECT_FALSE(st.ok()) << "truncate=" << truncate;
    if (truncate) {
      EXPECT_FALSE(spill->Read(handles[2], &payload).ok());
    } else {
      EXPECT_TRUE(spill->Read(handles[2], &payload).ok());
    }
  }
}

size_t OpenFdCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

// Every segment descriptor is closed by the time its segment is retired or
// deleted, and the rest by the destructor.
TEST(SpillStoreTest, SegmentDescriptorsDoNotLeak) {
  if (!std::filesystem::exists("/proc/self/fd")) GTEST_SKIP() << "no /proc/self/fd";
  ScopedTempDir tmp;
  const std::string dir = tmp.Sub("spill");
  const size_t baseline = OpenFdCount();
  std::vector<SpillHandle> handles;
  {
    std::unique_ptr<SpillStore> spill;
    ASSERT_TRUE(SpillStore::Open(dir, 64, SpillStore::GcPolicy::kDeferred, &spill).ok());
    for (int round = 0; round < 5; ++round) {
      for (int i = 0; i < 40; ++i) {
        SpillHandle h;
        ASSERT_TRUE(spill->Append(std::string(40, 'r'), &h).ok());
        handles.push_back(h);
      }
      // Release all but the newest 5: dozens of rotated segments retire.
      while (handles.size() > 5) {
        spill->Release(handles.front());
        handles.erase(handles.begin());
      }
    }
    EXPECT_LE(OpenFdCount(), baseline + 6) << "retired segments kept their descriptors";
    ASSERT_TRUE(spill->DeleteRetiredBefore(spill->TakeRetireMark()).ok());
  }
  EXPECT_EQ(OpenFdCount(), baseline) << "destructor left descriptors open";
  {
    std::unique_ptr<SpillStore> spill;
    ASSERT_TRUE(SpillStore::Open(dir, 64, SpillStore::GcPolicy::kDeferred, &spill).ok());
    ASSERT_TRUE(spill->Reref(handles.front()));
    ASSERT_TRUE(spill->PurgeUnclaimed().ok());
    for (int i = 0; i < 40; ++i) {
      SpillHandle h;
      ASSERT_TRUE(spill->Append(std::string(40, 'd'), &h).ok());
      spill->Release(h);
    }
    spill->Release(handles.front());
    ASSERT_TRUE(spill->DeleteRetiredBefore(spill->TakeRetireMark()).ok());
    EXPECT_LE(OpenFdCount(), baseline + 1) << "only the active segment stays open";
  }
  EXPECT_EQ(OpenFdCount(), baseline);
}

// --- CheckpointService --------------------------------------------------

TEST(CheckpointServiceTest, DurableEpochAdvancesInOrder) {
  ScopedTempDir tmp;
  StateStore store(tmp.Sub("task"));
  CheckpointService service;
  EXPECT_FALSE(service.DurableSet(0));
  for (uint64_t e = 0; e < 5; ++e) {
    CheckpointJob job;
    job.task_id = 0;
    job.epoch = e;
    job.is_base = e == 0;
    const std::string payload = "epoch-" + std::to_string(e);
    job.blob.is_delta = e != 0;
    job.blob.encode = [payload](std::string* out) { *out = payload; };
    job.store = &store;
    service.Submit(std::move(job));
  }
  service.Barrier(0);
  EXPECT_TRUE(service.DurableSet(0));
  EXPECT_EQ(service.DurableEpoch(0), 4u);
  EXPECT_FALSE(service.Wedged(0));
  RecoveredChain chain;
  ASSERT_TRUE(store.Recover(&chain).ok());
  ASSERT_TRUE(chain.valid);
  EXPECT_EQ(chain.base, "epoch-0");
  EXPECT_EQ(chain.deltas.size(), 4u);
  service.Stop();
}

TEST(CheckpointServiceTest, FailedWriteWedgesAndSkipsLaterJobs) {
  ScopedTempDir tmp;
  // A StateStore rooted at a path occupied by a *file* cannot write.
  WriteAll(tmp.Sub("blocked"), "i am a file");
  StateStore store(tmp.Sub("blocked"));
  CheckpointService service;
  int completions = 0;
  int failures = 0;
  for (uint64_t e = 0; e < 3; ++e) {
    CheckpointJob job;
    job.task_id = 7;
    job.epoch = e;
    job.is_base = true;
    job.blob.encode = [](std::string* out) { *out = "x"; };
    job.store = &store;
    job.on_complete = [&completions, &failures](bool ok, uint64_t, uint64_t) {
      ++completions;
      if (!ok) ++failures;
    };
    service.Submit(std::move(job));
  }
  service.Barrier(7);
  EXPECT_TRUE(service.Wedged(7));
  EXPECT_FALSE(service.DurableSet(7));
  EXPECT_EQ(completions, 3);  // wedge-skips still report
  EXPECT_EQ(failures, 3);
  // Reset clears the wedge for a new incarnation.
  service.Reset(7);
  EXPECT_FALSE(service.Wedged(7));
  service.Stop();
}

TEST(CheckpointServiceTest, TasksAreIndependent) {
  ScopedTempDir tmp;
  WriteAll(tmp.Sub("blocked"), "file");
  StateStore bad(tmp.Sub("blocked"));
  StateStore good(tmp.Sub("good"));
  CheckpointService service;
  CheckpointJob j1;
  j1.task_id = 1;
  j1.epoch = 0;
  j1.is_base = true;
  j1.blob.encode = [](std::string* out) { *out = "x"; };
  j1.store = &bad;
  service.Submit(std::move(j1));
  CheckpointJob j2;
  j2.task_id = 2;
  j2.epoch = 0;
  j2.is_base = true;
  j2.blob.encode = [](std::string* out) { *out = "y"; };
  j2.store = &good;
  service.Submit(std::move(j2));
  service.Barrier(1);
  service.Barrier(2);
  EXPECT_TRUE(service.Wedged(1));
  EXPECT_FALSE(service.Wedged(2));
  EXPECT_TRUE(service.DurableSet(2));
  service.Stop();
}

// --- DetachRecord no-copy regression ------------------------------------

// A record that owns its token bytes must pass through DetachRecord
// untouched — the checkpoint/shed capture path relies on this staying a
// pointer bump, not a deep copy (src/text/record.cc).
TEST(DetachRecordTest, OwningRecordIsNotCopied) {
  RecordPtr owning = MakeRecord(1, 1, {3, 1, 2}, 0);
  ASSERT_FALSE(owning->borrowed());
  const RecordPtr detached = DetachRecord(owning);
  EXPECT_EQ(detached.get(), owning.get()) << "owning record deep-copied on detach";
  EXPECT_EQ(detached->tokens.data(), owning->tokens.data());
  EXPECT_EQ(owning.use_count(), 2);
}

TEST(DetachRecordTest, BorrowedRecordIsDeepCopied) {
  const std::vector<TokenId> backing = {1, 2, 3, 9};
  auto borrowed = std::make_shared<const Record>(
      5, 5, 0, TokenArray::Borrow(backing.data(), backing.size()));
  ASSERT_TRUE(borrowed->borrowed());
  const RecordPtr detached = DetachRecord(borrowed);
  EXPECT_NE(detached.get(), borrowed.get());
  ASSERT_FALSE(detached->borrowed());
  EXPECT_NE(detached->tokens.data(), backing.data());
  ASSERT_EQ(detached->tokens.size(), backing.size());
  EXPECT_TRUE(std::equal(backing.begin(), backing.end(), detached->tokens.begin()));
}

}  // namespace
}  // namespace dssj::store
