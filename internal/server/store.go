package server

// Store is the durability side of mtserve: it owns the WAL, the snapshot
// schedule and the recovery path, and serializes every mutating statement
// so WAL order equals apply order.
//
// The base MT-H state is not logged. MANIFEST.json records the generator
// configuration (scale factor, tenant count, distribution, seed, engine
// mode); mth.BuildMT is deterministic, so recovery rebuilds the identical
// base state from the manifest and only the statements executed over the
// wire need the log. A record is appended only after its statement
// executed successfully — failed statements have no effects to redo — and
// the client is acknowledged only after the record is fsynced.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
	"mtbase/internal/sqltypes"
	"mtbase/internal/wal"
)

// Manifest describes how to rebuild a server's base state. It is written
// once when a durability directory is initialized; on later opens the
// stored manifest wins over command-line flags.
type Manifest struct {
	Version  int     `json:"version"`
	SF       float64 `json:"sf"`
	Tenants  int     `json:"tenants"`
	Dist     string  `json:"dist"`
	Seed     int64   `json:"seed"`
	Mode     string  `json:"mode"` // "postgres" or "system-c"
	GrantAll bool    `json:"grant_all"`
}

// Config converts the manifest into the generator configuration.
func (m Manifest) Config() (mth.Config, error) {
	cfg := mth.Config{
		SF:      m.SF,
		Tenants: m.Tenants,
		Dist:    mth.Distribution(m.Dist),
		Seed:    m.Seed,
	}
	switch m.Mode {
	case "postgres", "":
		cfg.Mode = engine.ModePostgres
	case "system-c":
		cfg.Mode = engine.ModeSystemC
	default:
		return cfg, fmt.Errorf("server: manifest mode %q (want postgres or system-c)", m.Mode)
	}
	return cfg, nil
}

const manifestName = "MANIFEST.json"

// Store combines a WAL, a snapshot schedule and the live instance the
// records replay against.
type Store struct {
	dir  string
	man  Manifest
	log  *wal.Log
	inst *mth.Instance

	// mu serializes mutating statements: holding it across execute+append
	// makes WAL order equal apply order, and lets the snapshotter pin all
	// heaps at one record boundary.
	mu        sync.Mutex
	sinceSnap int  // records appended since the last snapshot
	snapEvery int  // snapshot after this many records; 0 disables
	snapping  bool // a snapshot goroutine is in flight

	snapWG    sync.WaitGroup
	snapshots atomic.Int64 // snapshots written since open
	recovered int          // records replayed at open
}

// OpenStore opens (or initializes) the durability directory dir and
// returns a Store whose instance has been recovered to the last
// acknowledged state: base state from the manifest, heaps from the newest
// valid snapshot, everything after from WAL replay. snapEvery is the
// number of logged records between automatic snapshots (0 disables them).
func OpenStore(dir string, man Manifest, snapEvery int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stored, err := readManifest(dir)
	switch {
	case err == nil:
		man = stored
	case os.IsNotExist(err):
		man.Version = 1
		if err := writeManifest(dir, man); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	cfg, err := man.Config()
	if err != nil {
		return nil, err
	}
	inst, err := mth.BuildMT(cfg)
	if err != nil {
		return nil, fmt.Errorf("server: rebuild base state: %w", err)
	}
	if man.GrantAll {
		for t := int64(1); t <= int64(cfg.Tenants); t++ {
			if err := inst.GrantReadTo(t); err != nil {
				return nil, err
			}
		}
	}
	log, recs, err := wal.Open(dir)
	if err != nil {
		return nil, err
	}
	snap, err := wal.ReadLatestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	st := &Store{dir: dir, man: man, log: log, inst: inst, snapEvery: snapEvery}
	if err := st.replay(recs, snap); err != nil {
		log.Close()
		return nil, err
	}
	return st, nil
}

// Instance returns the recovered live instance.
func (st *Store) Instance() *mth.Instance { return st.inst }

// Manifest returns the effective manifest (the stored one, on reopen).
func (st *Store) Manifest() Manifest { return st.man }

// Recovered reports how many WAL records replayed at open.
func (st *Store) Recovered() int { return st.recovered }

// LastLSN reports the most recently appended LSN.
func (st *Store) LastLSN() uint64 { return st.log.LastLSN() }

// Snapshots reports how many snapshots were written since open.
func (st *Store) Snapshots() int64 { return st.snapshots.Load() }

// Apply runs one mutating statement through the durability path: execute
// under the store lock, append a record describing the execution exactly
// (tenant, level, scope, text, bind values), then group-commit fsync
// before returning. Failed statements are not logged — they have no
// effects — and their error returns immediately.
func (st *Store) Apply(kind wal.Kind, tenant int64, level optimizer.Level, scope, sql string,
	args []sqltypes.Value, exec func() (*engine.Result, error)) (*engine.Result, error) {
	st.mu.Lock()
	res, err := exec()
	if err != nil {
		st.mu.Unlock()
		return nil, err
	}
	lsn, err := st.log.Append(&wal.Record{
		Kind: kind, Tenant: tenant, Level: uint8(level), Scope: scope, SQL: sql, Args: args,
	})
	if err != nil {
		st.mu.Unlock()
		return nil, err
	}
	st.sinceSnap++
	trigger := st.snapEvery > 0 && st.sinceSnap >= st.snapEvery && !st.snapping
	if trigger {
		st.snapping = true
		st.sinceSnap = 0
		st.snapWG.Add(1)
	}
	st.mu.Unlock()

	if err := st.log.Sync(lsn); err != nil {
		// The statement applied in memory but is not durable; surfacing
		// the error (instead of acknowledging) keeps the contract that
		// every acknowledged write is recovered. A pending snapshot trigger
		// must be unwound — its Add would never be matched by Done and
		// Close's Wait would hang — and re-armed for the next durable record.
		if trigger {
			st.mu.Lock()
			st.snapping = false
			st.sinceSnap = st.snapEvery
			st.mu.Unlock()
			st.snapWG.Done()
		}
		return nil, err
	}
	if trigger {
		go st.snapshot()
	}
	return res, nil
}

// snapshot pins every heap at the current record boundary (pointer reads
// under the store lock, cheap thanks to copy-on-write heaps) and
// serializes them concurrently with new writes.
func (st *Store) snapshot() {
	defer st.snapWG.Done()
	st.mu.Lock()
	lsn, tables := st.pinHeapsLocked()
	st.mu.Unlock()
	st.writeSnapshot(lsn, tables)
	st.mu.Lock()
	st.snapping = false
	st.mu.Unlock()
}

// ForceSnapshot writes a snapshot of the current state synchronously and
// returns the LSN it covers.
func (st *Store) ForceSnapshot() (uint64, error) {
	st.mu.Lock()
	lsn, tables := st.pinHeapsLocked()
	st.sinceSnap = 0
	st.mu.Unlock()
	return lsn, st.writeSnapshot(lsn, tables)
}

func (st *Store) pinHeapsLocked() (uint64, []wal.TableDump) {
	db := st.inst.Srv.DB()
	names := db.TableNames()
	tables := make([]wal.TableDump, 0, len(names))
	for _, name := range names {
		tables = append(tables, wal.TableDump{Name: name, Rows: db.Table(name).Heap()})
	}
	return st.log.LastLSN(), tables
}

func (st *Store) writeSnapshot(lsn uint64, tables []wal.TableDump) error {
	// Every record the snapshot covers must be durable before the
	// snapshot exists: recovery trusts a snapshot's LSN unconditionally.
	if err := st.log.Sync(lsn); err != nil {
		return err
	}
	if _, err := wal.WriteSnapshot(st.dir, &wal.Snapshot{LSN: lsn, Tables: tables}); err != nil {
		return err
	}
	st.snapshots.Add(1)
	return nil
}

// Backup copies the durability directory into dst (online; no quiescing)
// after making everything appended so far durable.
func (st *Store) Backup(dst string) (int, error) {
	if err := st.log.Sync(st.log.LastLSN()); err != nil {
		return 0, err
	}
	return wal.Backup(st.dir, dst)
}

// Close waits out any in-flight snapshot and closes the log (final fsync).
func (st *Store) Close() error {
	st.snapWG.Wait()
	return st.log.Close()
}

// replay applies recovered records to the freshly rebuilt base state.
// With a snapshot: schema-class records up to the snapshot LSN replay
// first (they shape catalog and privilege state outside the heaps), the
// snapshot heaps are installed wholesale, and records after the snapshot
// LSN replay in full. Replay reproduces each record's session context —
// tenant, optimization level, SET SCOPE statement — exactly; the engine's
// deterministic execution does the rest.
func (st *Store) replay(recs []wal.Record, snap *wal.Snapshot) error {
	conns := make(map[string]*middleware.Conn)
	session := func(tenant int64, scope string) (*middleware.Conn, error) {
		key := fmt.Sprintf("%d\x00%s", tenant, scope)
		if c, ok := conns[key]; ok {
			return c, nil
		}
		c, err := st.inst.Srv.Connect(tenant)
		if err != nil {
			return nil, err
		}
		if scope != "" {
			if _, err := c.Exec(scope); err != nil {
				return nil, fmt.Errorf("server: replay scope %q: %w", scope, err)
			}
		}
		conns[key] = c
		return c, nil
	}
	st.recovered = len(recs)
	installed := snap == nil
	install := func() error {
		db := st.inst.Srv.DB()
		for _, t := range snap.Tables {
			tab := db.Table(t.Name)
			if tab == nil {
				return fmt.Errorf("server: snapshot table %s missing after schema replay", t.Name)
			}
			tab.ReplaceRows(t.Rows)
		}
		installed = true
		return nil
	}
	ctx := context.Background()
	for i := range recs {
		rec := &recs[i]
		if !installed {
			if rec.LSN > snap.LSN {
				if err := install(); err != nil {
					return err
				}
			} else if rec.Kind == wal.KindData {
				continue // heap effects come from the snapshot
			}
		}
		c, err := session(rec.Tenant, rec.Scope)
		if err != nil {
			return err
		}
		c.SetOptLevel(optimizer.Level(rec.Level))
		stmt, err := middleware.Parse(rec.SQL)
		if err == nil {
			_, err = c.ExecStmt(ctx, stmt, rec.Args)
		}
		if err != nil {
			// Only successful statements are logged; a replay failure
			// means the directory does not match its manifest.
			return fmt.Errorf("server: replay LSN %d (%s): %w", rec.LSN, rec.SQL, err)
		}
	}
	if !installed {
		if err := install(); err != nil {
			return err
		}
	}
	return nil
}

func readManifest(dir string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("server: %s: %w", manifestName, err)
	}
	return m, nil
}

func writeManifest(dir string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "manifest-tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	// A lost manifest entry would make recovery rebuild the wrong base state.
	return wal.SyncDir(dir)
}
