package faultinject

// Filesystem wrappers with injection sites. Checkpointing and every
// other durability path route their file operations through these, so a
// fault profile can kill a write mid-stream, fill the disk, or tear a
// rename without any platform trickery — and tests can assert that
// restart recovery always finds the last-good state.
//
// Every wrapper takes its site name explicitly (the caller's
// vocabulary: "checkpoint.write", "checkpoint.rename", ...), so one
// profile can target the snap install rename without touching the
// generation rotation that shares the same underlying syscall.
//
// Kind semantics at filesystem sites:
//
//   - error, enospc: the operation does not happen; the injected error
//     is returned (enospc unwraps to syscall.ENOSPC).
//   - partial (write sites): half the data is written, then an
//     ENOSPC-wrapping error — a torn file with a truthful error.
//   - torn (rename sites): the destination receives a truncated prefix
//     of the source, the source is removed, and the call reports
//     SUCCESS — the silent corruption of a dying non-atomic filesystem.
//     Recovery must catch this from checksums, not error codes.
//   - latency: the operation happens after the configured sleep.

import (
	"os"
	"time"
)

// CreateTemp is os.CreateTemp behind the named injection site.
func CreateTemp(siteName, dir, pattern string) (*os.File, error) {
	if err := Check(siteName); err != nil {
		return nil, err
	}
	return os.CreateTemp(dir, pattern)
}

// Write writes data to f behind the named injection site. A partial
// fault writes the first half of data and returns an ENOSPC-wrapping
// error, leaving a torn file for recovery to detect.
func Write(siteName string, f *os.File, data []byte) (int, error) {
	if s := lookup(siteName); s != nil && s.fire() {
		if s.kind == KindPartial {
			n, _ := f.Write(data[:len(data)/2])
			return n, s.err
		}
		if s.kind == KindLatency {
			time.Sleep(s.latency)
		} else {
			return 0, s.err
		}
	}
	return f.Write(data)
}

// Sync is f.Sync behind the named injection site.
func Sync(siteName string, f *os.File) error {
	if err := Check(siteName); err != nil {
		return err
	}
	return f.Sync()
}

// Rename is os.Rename behind the named injection site. A torn fault
// installs a truncated prefix of the source at the destination, removes
// the source, and reports success — silent corruption that only content
// verification (CRC) can catch.
func Rename(siteName, oldpath, newpath string) error {
	if s := lookup(siteName); s != nil && s.fire() {
		switch s.kind {
		case KindTorn:
			data, err := os.ReadFile(oldpath)
			if err != nil {
				return err
			}
			if err := os.WriteFile(newpath, data[:len(data)/2], 0o644); err != nil {
				return err
			}
			_ = os.Remove(oldpath)
			return nil
		case KindLatency:
			time.Sleep(s.latency)
		default:
			return s.err
		}
	}
	return os.Rename(oldpath, newpath)
}

// MkdirAll is os.MkdirAll behind the named injection site.
func MkdirAll(siteName, path string, perm os.FileMode) error {
	if err := Check(siteName); err != nil {
		return err
	}
	return os.MkdirAll(path, perm)
}
