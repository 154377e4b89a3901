package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func testID(i int) string { return fmt.Sprintf("%016x", uint64(i)+0xabc) }

// openTestJournal opens a journal over dir with no live cache behind it
// (compaction snapshots whatever records fn returns; nil means empty).
func openTestJournal(t *testing.T, dir string, snapshot func() []persistRecord) (*journal, []persistRecord) {
	t.Helper()
	if snapshot == nil {
		snapshot = func() []persistRecord { return nil }
	}
	j, recs, err := openJournal(dir, 0, snapshot, obs.New().Metrics(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return j, recs
}

// writeWAL crafts a WAL file from encoded records plus optional raw
// tail bytes, without going through a journal (whose close always
// compacts).
func writeWAL(t *testing.T, dir string, recs []persistRecord, tail []byte) {
	t.Helper()
	var buf []byte
	for _, rec := range recs {
		buf = append(buf, encodeRecord(rec)...)
	}
	buf = append(buf, tail...)
	if err := os.WriteFile(filepath.Join(dir, walFile), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// The snapshot closure emulates a cache holding everything appended;
	// Close's final compaction reads it after the appends have drained.
	var snap []persistRecord
	j, recs := openTestJournal(t, dir, func() []persistRecord { return snap })
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := map[string]string{}
	for i := 0; i < 20; i++ {
		id := testID(i)
		body := fmt.Sprintf(`{"decision":%d}`, i)
		want[id] = body
		snap = append(snap, persistRecord{id: id, body: []byte(body)})
		j.append(id, []byte(body))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs := openTestJournal(t, dir, nil)
	defer j2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for _, rec := range recs {
		if want[rec.id] != string(rec.body) {
			t.Errorf("record %s body = %q, want %q", rec.id, rec.body, want[rec.id])
		}
	}
}

// A torn write (kill -9 mid-append) must truncate the tail and keep
// every record before it — corruption is never fatal.
func TestJournalCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	good := []persistRecord{
		{id: testID(1), body: []byte("body-one")},
		{id: testID(2), body: []byte("body-two")},
	}
	// Header promising 42 payload bytes, then only 3: a torn append.
	writeWAL(t, dir, good, []byte{0, 0, 0, 42, 9, 9, 9, 9, 1, 2, 3})

	o := obs.New()
	j, recs, err := openJournal(dir, 0, func() []persistRecord { return nil }, o.Metrics(), nil)
	if err != nil {
		t.Fatalf("corrupt tail must not be fatal: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want the 2 before the torn tail", len(recs))
	}
	for i, rec := range recs {
		if rec.id != good[i].id || string(rec.body) != string(good[i].body) {
			t.Errorf("record %d = %s/%q, want %s/%q", i, rec.id, rec.body, good[i].id, good[i].body)
		}
	}
	if v := o.Metrics().Counter("service_persist", obs.L("event", "corrupt_truncated")).Value(); v != 1 {
		t.Errorf("corrupt_truncated = %v, want 1", v)
	}
	if v := o.Metrics().Counter("service_persist", obs.L("event", "replayed")).Value(); v != 2 {
		t.Errorf("replayed = %v, want 2", v)
	}
	// The truncation put the file back on a record boundary: an append
	// after reopen lands cleanly after the surviving records.
	wantSize := int64(len(encodeRecord(good[0])) + len(encodeRecord(good[1])))
	st, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != wantSize {
		t.Errorf("WAL size after truncation = %d, want %d", st.Size(), wantSize)
	}
	j.Close()
}

// A flipped payload byte (checksum mismatch mid-file) truncates from
// that record onward.
func TestJournalBadChecksumTruncates(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	buf = append(buf, encodeRecord(persistRecord{id: testID(1), body: []byte("aaaa")})...)
	buf = append(buf, encodeRecord(persistRecord{id: testID(2), body: []byte("bbbb")})...)
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, walFile), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs := openTestJournal(t, dir, nil)
	defer j.Close()
	if len(recs) != 1 || recs[0].id != testID(1) {
		t.Fatalf("replay after checksum corruption = %+v, want just record 1", recs)
	}
}

// The WAL compacts into the snapshot once it outgrows maxWAL; the
// snapshot reflects the live cache, not the raw append history, and the
// WAL resets to empty.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	cache := []persistRecord{
		{id: testID(100), body: []byte("kept-1")},
		{id: testID(101), body: []byte("kept-2")},
	}
	j, _, err := openJournal(dir, 256, func() []persistRecord { return cache },
		obs.New().Metrics(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Push well past the 256-byte threshold.
	for i := 0; i < 50; i++ {
		j.append(testID(i), []byte("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
	}
	waitFor(t, func() bool {
		st, err := os.Stat(filepath.Join(dir, snapFile))
		return err == nil && st.Size() > 0
	})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := openTestJournal(t, dir, nil)
	if len(recs) != len(cache) {
		t.Fatalf("replayed %d records, want the %d cache entries", len(recs), len(cache))
	}
	for i, rec := range recs {
		if rec.id != cache[i].id || string(rec.body) != string(cache[i].body) {
			t.Errorf("record %d = %s/%q, want %s/%q", i, rec.id, rec.body, cache[i].id, cache[i].body)
		}
	}
	st, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Errorf("WAL size after compaction = %d, want 0", st.Size())
	}
}

// Appends with malformed ids are refused before they can poison the
// on-disk format (ids are always 16-byte fingerprint hex).
func TestJournalRejectsBadID(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir, nil)
	j.append("short", []byte("body"))
	j.append("", []byte("body"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := openTestJournal(t, dir, nil)
	if len(recs) != 0 {
		t.Fatalf("malformed ids journaled: %+v", recs)
	}
}

// FuzzJournalReplay replays arbitrary bytes as a WAL. Replay must never
// panic; the file it keeps must be exactly the encoding of the records
// it returns and a prefix of the input; and replaying the kept file
// again must return the same records.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), walFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j := &journal{truncated: obs.New().Metrics().Counter("service_persist", obs.L("event", "corrupt_truncated"))}
		recs, err := j.replayFile(path)
		if err != nil {
			t.Fatal(err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var enc []byte
		for _, rec := range recs {
			enc = append(enc, encodeRecord(rec)...)
		}
		if !bytes.Equal(kept, enc) {
			t.Fatalf("kept %d bytes, but the %d replayed records encode to %d", len(kept), len(recs), len(enc))
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("kept file is not a prefix of the input")
		}
		again, err := j.replayFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(recs) {
			t.Fatalf("second replay returned %d records, first %d", len(again), len(recs))
		}
		for i := range recs {
			if again[i].id != recs[i].id || !bytes.Equal(again[i].body, recs[i].body) {
				t.Fatalf("second replay record %d = %s/%q, first %s/%q", i, again[i].id, again[i].body, recs[i].id, recs[i].body)
			}
		}
	})
}
