package wal

// Crash-recovery differential harness. Two flavors:
//
//   - TestCrashRecoveryAtEveryBoundary simulates a crash at every record
//     boundary of a driven history (plus torn mid-record variants) by
//     truncating a copy of the log — the on-disk image a kill leaves
//     behind is exactly a prefix of the writes, since each record lands
//     with one write+fsync. Recovery must land on the oracle state for
//     that prefix, bit-identically, across workloads × algorithms × seeds.
//
//   - TestCrashRecoverySIGKILL re-execs the test binary as a child that
//     drives the same deterministic workload with synced appends,
//     reporting each durable epoch on stdout; the parent SIGKILLs it
//     mid-history and verifies recovery lands on the oracle state at
//     some epoch ≥ the last acknowledged one.

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"kwmds/internal/testsupport"
)

var crashWorkloads = []churnWorkload{
	{name: "topology-churn", n: 48, epochs: 8, seed: 3, radius: 0.22, speed: 0.06},
	{name: "churn-with-weights", n: 64, epochs: 8, seed: 5, radius: 0.18, speed: 0.05, weightsEvery: 2},
}

// sigkillWorkload is the SIGKILL child's history: a trickle over 32
// blocks, so most epochs commit pages and a few compact, and a recovery
// replays a chain of paged epochs over the mapped snapshot.
var sigkillWorkload = churnWorkload{name: "trickle", n: 2048, epochs: 12, seed: 11, radius: 0.05, speed: 1e-5}

var (
	crashAlgs  = []string{"kw", "kw2", "kwcds"}
	crashSeeds = []int64{1, 7}
)

func TestCrashRecoveryAtEveryBoundary(t *testing.T) {
	for _, w := range crashWorkloads {
		t.Run(w.name, func(t *testing.T) {
			src := t.TempDir()
			res := driveChurn(t, src, w, noSnapshots)
			if err := res.log.Close(); err != nil {
				t.Fatal(err)
			}
			logPath := logName(0)

			for k := 0; k < len(res.offsets); k++ {
				k := k
				t.Run(fmt.Sprintf("boundary-%d", k), func(t *testing.T) {
					dir := copyDir(t, src)
					if err := os.Truncate(filepath.Join(dir, logPath), res.offsets[k]); err != nil {
						t.Fatal(err)
					}
					rec, err := Open(dir, nil, nil, noSnapshots)
					if err != nil {
						t.Fatalf("recovery at boundary %d: %v", k, err)
					}
					defer rec.Log.Close()
					defer rec.Mapped.Close()
					if got := rec.Dyn.Epoch(); got != int64(k) {
						t.Fatalf("recovered epoch %d, want %d", got, k)
					}
					if rec.Stats.TornTailBytes != 0 {
						t.Fatalf("clean boundary reported %d torn bytes", rec.Stats.TornTailBytes)
					}
					if rec.Digest != res.states[k].digest {
						t.Fatalf("recovered digest does not match the oracle at epoch %d", k)
					}
					for _, alg := range crashAlgs {
						for _, seed := range crashSeeds {
							got := solveState(t, rec.Dyn.Graph(), rec.Dyn.Costs(), alg, seed)
							want := solveState(t, res.states[k].g, res.states[k].costs, alg, seed)
							testsupport.RequireBitIdentical(t, got, want)
						}
					}
				})
			}

			// Torn variants: the crash lands mid-write of record k+1. The
			// default policy truncates the unfinished (never-acknowledged)
			// tail and recovers epoch k; strict refuses the whole log.
			for k := 0; k+1 < len(res.offsets); k++ {
				frameLen := res.offsets[k+1] - res.offsets[k]
				for _, torn := range []int64{1, framePrefixBytes - 1, frameLen - 1} {
					if torn <= 0 || torn >= frameLen {
						continue
					}
					k, torn := k, torn
					t.Run(fmt.Sprintf("torn-%d+%d", k, torn), func(t *testing.T) {
						dir := copyDir(t, src)
						if err := os.Truncate(filepath.Join(dir, logPath), res.offsets[k]+torn); err != nil {
							t.Fatal(err)
						}
						if _, err := Open(dir, nil, nil, Options{Strict: true, SnapshotEveryEpochs: -1, SnapshotEveryBytes: -1}); !errors.Is(err, ErrTornTail) {
							t.Fatalf("strict recovery of torn tail: err = %v, want ErrTornTail", err)
						}
						rec, err := Open(dir, nil, nil, noSnapshots)
						if err != nil {
							t.Fatalf("lax recovery of torn tail: %v", err)
						}
						defer rec.Log.Close()
						defer rec.Mapped.Close()
						if got := rec.Dyn.Epoch(); got != int64(k) {
							t.Fatalf("recovered epoch %d, want %d", got, k)
						}
						if rec.Stats.TornTailBytes != torn {
							t.Fatalf("torn bytes = %d, want %d", rec.Stats.TornTailBytes, torn)
						}
						if rec.Digest != res.states[k].digest {
							t.Fatalf("recovered digest does not match the oracle at epoch %d", k)
						}
						got := solveState(t, rec.Dyn.Graph(), rec.Dyn.Costs(), "kw2", 1)
						want := solveState(t, res.states[k].g, res.states[k].costs, "kw2", 1)
						testsupport.RequireBitIdentical(t, got, want)

						// The torn bytes were physically truncated: a second
						// recovery sees a clean tail, and the log accepts the
						// next epoch where the torn one left off.
						rec.Log.Close()
						rec.Mapped.Close()
						rec2, err := Open(dir, nil, nil, noSnapshots)
						if err != nil {
							t.Fatalf("re-recovery after truncation: %v", err)
						}
						defer rec2.Log.Close()
						defer rec2.Mapped.Close()
						if rec2.Stats.TornTailBytes != 0 {
							t.Fatalf("torn tail survived the first recovery")
						}
					})
				}
			}
		})
	}
}

// crashChildEnv carries the child's state dir; its presence selects child
// mode in TestCrashRecoverySIGKILLChild.
const crashChildEnv = "KWMDS_WAL_CRASH_DIR"

// TestCrashRecoverySIGKILLChild is the exec'd child: it drives the SIGKILL
// workload with synced appends, printing "SYNCED <epoch>" from inside the
// drive loop as each record's synced append returns, and is SIGKILLed by
// the parent somewhere mid-history.
func TestCrashRecoverySIGKILLChild(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("child mode only (parent: TestCrashRecoverySIGKILL)")
	}
	res := driveChurnAcked(t, dir, sigkillWorkload, noSnapshots, func(epoch int) {
		fmt.Printf("SYNCED %d\n", epoch)
	})
	res.log.Close()
}

func TestCrashRecoverySIGKILL(t *testing.T) {
	if os.Getenv(crashChildEnv) != "" {
		t.Skip("running as child")
	}
	if testing.Short() {
		t.Skip("exec'd-child crash test skipped in -short")
	}
	w := sigkillWorkload
	for _, killAfter := range []int{1, 3} {
		killAfter := killAfter
		t.Run(fmt.Sprintf("kill-after-%d", killAfter), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run", "TestCrashRecoverySIGKILLChild", "-test.v")
			cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			acked := 0
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if !strings.HasPrefix(line, "SYNCED ") {
					continue
				}
				k, err := strconv.Atoi(strings.TrimPrefix(line, "SYNCED "))
				if err != nil {
					t.Fatalf("bad ack line %q", line)
				}
				acked = k
				if k >= killAfter {
					cmd.Process.Signal(syscall.SIGKILL)
					break
				}
			}
			// Drain and reap; the kill races the child's own exit, both fine.
			for sc.Scan() {
			}
			cmd.Wait()
			if acked < killAfter {
				t.Fatalf("child exited after acking only %d epochs, wanted to kill at %d", acked, killAfter)
			}

			// The oracle: the same deterministic workload driven in-process.
			oracleDir := t.TempDir()
			oracle := driveChurn(t, oracleDir, w, noSnapshots)
			defer oracle.log.Close()

			rec, err := Open(dir, nil, nil, noSnapshots)
			if err != nil {
				t.Fatalf("recovery after SIGKILL: %v", err)
			}
			defer rec.Log.Close()
			defer rec.Mapped.Close()
			got := rec.Dyn.Epoch()
			// Every acknowledged epoch survived; epochs between the ack we
			// killed on and the kill landing may or may not have made it.
			if got < int64(acked) || got >= int64(len(oracle.states)) {
				t.Fatalf("recovered epoch %d, want in [%d, %d]", got, acked, len(oracle.states)-1)
			}
			if rec.Digest != oracle.states[got].digest {
				t.Fatalf("recovered digest does not match the oracle at epoch %d", got)
			}
			if got < int64(len(oracle.states))-1 {
				t.Logf("killed mid-history: acked %d, recovered %d of %d epochs (%d blocks paged)",
					acked, got, len(oracle.states)-1, rec.Dyn.Graph().PagedBlocks())
			}
			for _, alg := range crashAlgs {
				gotRes := solveState(t, rec.Dyn.Graph(), rec.Dyn.Costs(), alg, 1)
				wantRes := solveState(t, oracle.states[got].g, oracle.states[got].costs, alg, 1)
				testsupport.RequireBitIdentical(t, gotRes, wantRes)
			}
		})
	}
}
