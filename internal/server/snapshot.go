package server

// Plan-cache persistence for the serving daemon. The design keeps every
// byte of file IO off the request path (compare juju's apiserver/state
// split): optimize handlers only ever touch the in-memory sessions,
// while Checkpoint — driven by rmqd's background ticker and the final
// flush during graceful shutdown — exports each session's shared
// stores under their own locks and persists them with write-to-temp +
// fsync + atomic rename, so a crash mid-checkpoint leaves the previous
// checkpoint intact.
//
// A checkpointed catalog is up to three files in the snapshot
// directory:
//
//	<id>.json       the registration manifest (its CatalogRequest)
//	<id>.snap       the rmq-snap/v1 stream of the session's plan caches
//	<id>.snap.prev  the previous snapshot generation
//
// Each checkpoint rotates the current snapshot to .prev before
// installing the new one, so there is always a last-good generation
// even when the install itself is torn or runs out of disk: the stream
// carries a CRC32 trailer, and LoadCheckpoint falls back from a
// damaged .snap to .snap.prev before demoting the catalog to a cold
// start (logged, never fatal — serving cold beats not serving). Files
// that fail verification are renamed aside with a .quarantined suffix
// and surfaced in GET /stats, so corruption is preserved for diagnosis
// instead of being silently overwritten by the next checkpoint.
//
// Every file operation on the durability path goes through
// internal/faultinject's wrappers (sites checkpoint.tmp, .write, .sync,
// .rename, .rotate), so chaos runs can kill writes mid-stream, tear
// renames and fill the disk, and the crash-consistency tests can assert
// that recovery always finds the newest intact generation.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"rmq/internal/api"
	"rmq/internal/faultinject"
)

// maxSnapshotBytes bounds snapshot files read back by the server; a
// snapshot larger than this did not come from a plausibly configured
// store (retention bounds frontier growth polynomially) and is refused
// rather than slurped into memory.
const maxSnapshotBytes = 1 << 30

// checkpointManifest is the persisted registration of one catalog.
type checkpointManifest struct {
	ID      string             `json:"id"`
	Request api.CatalogRequest `json:"request"`
}

// Checkpoint persists every registered catalog to the snapshot
// directory and prunes files of catalogs that no longer exist. Catalogs
// checkpoint independently: one failure does not stop the others, and
// the joined error reports them all. It is a no-op without a snapshot
// directory.
func (s *Server) Checkpoint() error {
	if s.cfg.SnapshotDir == "" {
		return nil
	}
	entries := s.entries()
	var errs []error
	for _, e := range entries {
		if err := s.checkpointEntry(e); err != nil {
			errs = append(errs, fmt.Errorf("catalog %s: %w", e.id, err))
		}
	}
	if err := s.pruneCheckpoints(entries); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// checkpointEntry writes one catalog's snapshot and manifest. The
// current snapshot generation is rotated to .prev before the new one is
// installed, so even a torn install (which the rename's atomicity
// normally rules out, but a dying filesystem does not) leaves a
// verifiable last-good generation.
// The manifest is written after the snapshot: LoadCheckpoint drives
// discovery off manifests, so a crash between the writes leaves either
// the old pair or a fresh snapshot the old manifest still matches —
// never a manifest pointing at nothing.
func (s *Server) checkpointEntry(e *catalogEntry) error {
	data, err := e.sess.Snapshot()
	if err != nil {
		return err
	}
	manifest, err := json.Marshal(checkpointManifest{ID: e.id, Request: e.spec})
	if err != nil {
		return err
	}
	if err := faultinject.MkdirAll("checkpoint.mkdir", s.cfg.SnapshotDir, 0o755); err != nil {
		return err
	}
	cur := filepath.Join(s.cfg.SnapshotDir, e.id+".snap")
	if _, err := os.Stat(cur); err == nil {
		if err := faultinject.Rename("checkpoint.rotate", cur, cur+".prev"); err != nil {
			return fmt.Errorf("rotating previous snapshot: %w", err)
		}
	}
	if err := writeFileAtomic(s.cfg.SnapshotDir, e.id+".snap", data); err != nil {
		return err
	}
	return writeFileAtomic(s.cfg.SnapshotDir, e.id+".json", manifest)
}

// pruneCheckpoints removes checkpoint files of catalogs not in the live
// set (deleted since the last checkpoint), so a restart cannot
// resurrect a catalog the operator removed.
func (s *Server) pruneCheckpoints(live []*catalogEntry) error {
	names, err := os.ReadDir(s.cfg.SnapshotDir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	alive := make(map[string]bool, len(live))
	for _, e := range live {
		alive[e.id] = true
	}
	var errs []error
	for _, ent := range names {
		name := ent.Name()
		id, ok := checkpointOwner(name)
		if !ok || alive[id] {
			continue
		}
		if err := os.Remove(filepath.Join(s.cfg.SnapshotDir, name)); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// checkpointOwner maps a checkpoint file name to the catalog id that
// owns it, across every generation and quarantine suffix (<id>.snap,
// <id>.snap.prev, <id>.json, and any of them + .quarantined). Files
// with other names are not checkpoint files and are left alone.
func checkpointOwner(name string) (string, bool) {
	name = strings.TrimSuffix(name, ".quarantined")
	name = strings.TrimSuffix(name, ".prev")
	if id := strings.TrimSuffix(name, ".snap"); id != name {
		return id, true
	}
	if id := strings.TrimSuffix(name, ".json"); id != name {
		return id, true
	}
	return "", false
}

// LoadCheckpoint re-registers every catalog checkpointed in the
// snapshot directory, warm-starting each session from the newest
// snapshot generation that verifies: <id>.snap first, <id>.snap.prev
// when the primary is damaged or missing. Catalogs keep their persisted
// ids (clients resume against the ids they know) and the id counter
// advances past them.
//
// A generation that fails to read or restore — truncated by a crash,
// torn by a dying filesystem (the stream's CRC32 trailer catches it),
// ENOSPC'd mid-write, fingerprint-skewed against its manifest, or
// taken at another retention α than its manifest registers — is
// quarantined: renamed aside with a .quarantined suffix and recorded
// for GET /stats, so the evidence survives the next checkpoint. Only
// when no generation verifies is the catalog re-registered cold
// (logged, never fatal); a manifest that cannot even be re-registered
// is skipped. It is a no-op without a snapshot directory.
func (s *Server) LoadCheckpoint() error {
	if s.cfg.SnapshotDir == "" {
		return nil
	}
	// /readyz reports unready until the replay finishes: a router must
	// not route to a node whose catalogs are still being registered.
	s.replaying.Store(true)
	defer s.replaying.Store(false)
	manifests, err := filepath.Glob(filepath.Join(s.cfg.SnapshotDir, "*.json"))
	if err != nil {
		return err
	}
	maxID := uint64(0)
	var errs []error
	for _, path := range manifests {
		raw, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var m checkpointManifest
		if err := json.Unmarshal(raw, &m); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", path, err))
			continue
		}
		if m.ID == "" || m.ID != strings.TrimSuffix(filepath.Base(path), ".json") {
			errs = append(errs, fmt.Errorf("%s: manifest id %q does not match file name", path, m.ID))
			continue
		}
		// Validate the manifest's catalog once up front, so a snapshot is
		// never blamed (and quarantined) for a registration that could not
		// have succeeded cold either.
		if _, err := buildCatalog(&m.Request); err != nil {
			errs = append(errs, fmt.Errorf("checkpoint %s: %w", m.ID, err))
			continue
		}

		var entry *catalogEntry
		warmBytes := 0
		for _, name := range []string{m.ID + ".snap", m.ID + ".snap.prev"} {
			snap, err := readSnapshotFile(s.cfg.SnapshotDir, name)
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			if err != nil {
				s.quarantineFile(name, err.Error())
				continue
			}
			if entry, err = s.register(&m.Request, m.ID, snap); err != nil {
				s.quarantineFile(name, err.Error())
				continue
			}
			warmBytes = len(snap)
			break
		}
		if entry == nil {
			var err error
			if entry, err = s.register(&m.Request, m.ID, nil); err != nil {
				errs = append(errs, fmt.Errorf("checkpoint %s: %w", m.ID, err))
				continue
			}
			s.logf("checkpoint %s: no snapshot generation verified, starting cold", m.ID)
		}
		if n, err := strconv.ParseUint(strings.TrimPrefix(entry.id, "c"), 10, 64); err == nil {
			maxID = max(maxID, n)
		}
		s.logf("restored catalog %s (%q, %d tables, %d snapshot bytes)",
			entry.id, entry.name, entry.tables, warmBytes)
	}
	s.mu.Lock()
	s.nextID = max(s.nextID, maxID)
	s.mu.Unlock()
	return errors.Join(errs...)
}

// quarantineFile renames a damaged checkpoint file aside (name +
// ".quarantined", replacing any previous quarantine of the same name)
// and records the event for GET /stats. The rename keeps the corrupt
// bytes for diagnosis while guaranteeing no later load can trust them
// and no checkpoint silently overwrites the evidence.
func (s *Server) quarantineFile(name, reason string) {
	path := filepath.Join(s.cfg.SnapshotDir, name)
	if err := os.Rename(path, path+".quarantined"); err != nil {
		s.logf("quarantine of %s failed: %v", name, err)
	}
	s.recordQuarantine(name, reason)
}

// readSnapshotFile reads a bounded snapshot file from inside dir. name
// must be a local path (no escape via .. or absolute paths).
func readSnapshotFile(dir, name string) ([]byte, error) {
	if !filepath.IsLocal(name) {
		return nil, fmt.Errorf("snapshot path %q escapes the snapshot directory", name)
	}
	path := filepath.Join(dir, name)
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.Size() > maxSnapshotBytes {
		return nil, fmt.Errorf("snapshot %s: %d bytes exceeds the %d byte limit", path, st.Size(), maxSnapshotBytes)
	}
	return os.ReadFile(path)
}

// writeFileAtomic writes data as dir/name via a temp file, fsync and
// rename, so readers and crash recovery only ever observe complete
// files — unless a fault profile tears the rename, which is exactly
// the corruption the CRC-verified load path exists to catch. Every
// step is an injection site (checkpoint.tmp, .write, .sync, .rename);
// on failure the temp file is removed so aborted checkpoints do not
// accumulate.
func writeFileAtomic(dir, name string, data []byte) error {
	f, err := faultinject.CreateTemp("checkpoint.tmp", dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := faultinject.Write("checkpoint.write", f, data)
	if serr := faultinject.Sync("checkpoint.sync", f); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return werr
	}
	if err := faultinject.Rename("checkpoint.rename", tmp, filepath.Join(dir, name)); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return nil
}
