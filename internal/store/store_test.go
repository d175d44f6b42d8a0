package store

import (
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

type payload struct {
	Name   string
	Cycles uint64
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), "model-1")
	if err != nil {
		t.Fatal(err)
	}
	want := payload{Name: "gzip", Cycles: 12345}
	var got payload
	if s.Load("k1", &got) {
		t.Fatal("hit on an empty store")
	}
	s.Save("k1", want)
	if !s.Load("k1", &got) || got != want {
		t.Fatalf("Load after Save = %+v, want %+v", got, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 || st.WriteErrors != 0 {
		t.Errorf("stats = %+v, want hits=1 misses=1 writes=1", st)
	}
}

func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, "model-1")
	if err != nil {
		t.Fatal(err)
	}
	s1.Save("k", payload{Name: "mcf", Cycles: 7})
	s2, err := Open(dir, "model-1")
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if !s2.Load("k", &got) || got.Cycles != 7 {
		t.Fatalf("reopened store: Load = (%+v), want cycles=7", got)
	}
}

// TestModelVersionIsolation: entries written under one timing-model version
// must be misses (not corrupt, not hits) under another.
func TestModelVersionIsolation(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(dir, "model-1")
	s1.Save("k", payload{Cycles: 1})
	s2, _ := Open(dir, "model-2")
	var got payload
	if s2.Load("k", &got) {
		t.Fatal("entry from model-1 served under model-2")
	}
	if st := s2.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want a plain miss", st)
	}
}

// entryFiles lists the store's persisted entries (excluding temp files).
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestCorruptEntriesFallBackToMiss(t *testing.T) {
	cases := map[string]func(data []byte) []byte{
		"truncated": func(d []byte) []byte { return d[:len(d)/2] },
		"bitflip":   func(d []byte) []byte { d[len(d)/2] ^= 0x40; return d },
		"garbage":   func(d []byte) []byte { return []byte("not json at all") },
		"empty":     func(d []byte) []byte { return nil },
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := Open(dir, "model-1")
			s.Save("k", payload{Name: "art", Cycles: 99})
			files := entryFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("expected 1 entry file, found %d", len(files))
			}
			data, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			var got payload
			if s.Load("k", &got) {
				t.Fatalf("damaged entry served as a hit: %+v", got)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Errorf("stats = %+v, want corrupt=1", st)
			}
			// Recompute-and-save repairs the entry.
			s.Save("k", payload{Name: "art", Cycles: 99})
			if !s.Load("k", &got) || got.Cycles != 99 {
				t.Errorf("entry not repaired after re-save: %+v", got)
			}
		})
	}
}

func TestOpenRejectsBadArgs(t *testing.T) {
	if _, err := Open("", "m"); err == nil {
		t.Error("empty dir accepted")
	}
	if _, err := Open(t.TempDir(), ""); err == nil {
		t.Error("empty model accepted")
	}
}

func TestDistinctKeysDistinctEntries(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, "m")
	s.Save("a", payload{Cycles: 1})
	s.Save("b", payload{Cycles: 2})
	var got payload
	if !s.Load("a", &got) || got.Cycles != 1 {
		t.Errorf("a = %+v", got)
	}
	if !s.Load("b", &got) || got.Cycles != 2 {
		t.Errorf("b = %+v", got)
	}
	if n := len(entryFiles(t, dir)); n != 2 {
		t.Errorf("entry files = %d, want 2", n)
	}
}

// FuzzLoad writes arbitrary bytes where an entry lives and loads it. Load
// must never panic, must answer a hit exactly for a current-format envelope
// with a correct CRC, this store's model and key, and a payload that
// decodes, and must count each call as exactly one hit, miss or corrupt.
func FuzzLoad(f *testing.F) {
	const model, key = "model-1", "k"
	seed := func(model string) []byte {
		dir := f.TempDir()
		s, _ := Open(dir, model)
		s.Save(key, payload{Name: "gzip", Cycles: 12345})
		data, err := os.ReadFile(s.path(key))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := seed(model)
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	f.Add(seed("model-2")) // a sound envelope for another model: a miss
	s, err := Open(f.TempDir(), model)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(s.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		var got payload
		hit := s.Load(key, &got)
		st := s.Stats()

		var env envelope
		var want payload
		wantHit := json.Unmarshal(data, &env) == nil && env.Format == format &&
			env.CRC == crc32.ChecksumIEEE(env.Payload) &&
			env.Model == model && env.Key == key &&
			json.Unmarshal(env.Payload, &want) == nil
		if hit != wantHit {
			t.Fatalf("Load = %v, want %v for %q", hit, wantHit, data)
		}
		if hit && got != want {
			t.Fatalf("Load decoded %+v, want %+v", got, want)
		}
		hits := st.Hits - before.Hits
		if hits+st.Misses-before.Misses+st.Corrupt-before.Corrupt != 1 || (hits == 1) != hit {
			t.Fatalf("stats went from %+v to %+v over one Load (hit %v)", before, st, hit)
		}
	})
}
