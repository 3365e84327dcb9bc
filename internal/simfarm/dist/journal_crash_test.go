package dist

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faultinject"
)

// The crash-point suite kills a real subprocess at every injected crash
// point in the journal's append and compaction paths, then replays the
// survivor in this process. The contract under test is the journal's
// whole durability story:
//
//   - an append acknowledged before the crash is always replayed
//     (unless a committed compaction pruned it by design),
//   - replay converges: opening the recovered journal a second time
//     finds zero damage and identical records,
//   - the recovered journal accepts appends.
//
// The child re-executes this test binary with CABT_JOURNAL_CRASH_SCENARIO
// set; faultinject.CrashFn (the default os.Exit) does the killing, so
// the death is as abrupt as the production code path allows.

const (
	envCrashScenario = "CABT_JOURNAL_CRASH_SCENARIO"
	envCrashPath     = "CABT_JOURNAL_CRASH_PATH"
	envCrashFaults   = "CABT_JOURNAL_CRASH_FAULTS"
)

func TestJournalCrashScenarioChild(t *testing.T) {
	scenario := os.Getenv(envCrashScenario)
	if scenario == "" {
		t.Skip("subprocess scenario runner; driven by TestJournalCrashPoints")
	}
	plan, err := faultinject.Parse(os.Getenv(envCrashFaults))
	if err != nil {
		t.Fatalf("child: parse faults: %v", err)
	}
	faultinject.Activate(plan)

	j, err := OpenJournal(os.Getenv(envCrashPath))
	if err != nil {
		t.Fatalf("child: open: %v", err)
	}
	appends := map[string]int{"appends": 6, "compact": 4}[scenario]
	if appends == 0 {
		t.Fatalf("child: unknown scenario %q", scenario)
	}
	for i := range appends {
		if err := j.Append(rec(fmt.Sprintf("a-%d", i), RecordSubmitted)); err != nil {
			t.Fatalf("child: append %d: %v", i, err)
		}
	}
	if scenario == "compact" {
		keep := []Record{rec("c-0", RecordSubmitted), rec("c-1", RecordSubmitted)}
		if err := j.Compact(keep); err != nil {
			t.Fatalf("child: compact: %v", err)
		}
	}
	// Reaching here means the armed crash point never fired; the parent
	// treats a clean exit as a test failure.
}

func TestJournalCrashPoints(t *testing.T) {
	appendIDs := func(n int) []string {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("a-%d", i)
		}
		return ids
	}
	cases := []struct {
		point    string
		scenario string
		// tmpLeft is whether the crash must leave <path>.tmp behind for
		// the recovery open to remove.
		tmpLeft bool
		// check validates the replayed record IDs.
		check func(t *testing.T, j *Journal, ids []string)
	}{
		{faultinject.PointJournalAppendCrashTorn + ":nth=4", "appends", false,
			func(t *testing.T, j *Journal, ids []string) {
				// Died mid-frame on the 4th append: exactly the 3 acked
				// records survive and the torn tail is reported repaired.
				if want := appendIDs(3); !reflect.DeepEqual(ids, want) {
					t.Fatalf("replayed %v, want %v", ids, want)
				}
				if j.Repaired() == 0 {
					t.Error("torn tail left no repair trace")
				}
			}},
		{faultinject.PointJournalAppendCrashSynced + ":nth=4", "appends", false,
			func(t *testing.T, j *Journal, ids []string) {
				// Died after the 4th append's fsync: the unacknowledged
				// record is durable anyway.
				if want := appendIDs(4); !reflect.DeepEqual(ids, want) {
					t.Fatalf("replayed %v, want %v", ids, want)
				}
			}},
		{faultinject.PointJournalCompactCrashSeg + ":nth=1", "compact", true,
			func(t *testing.T, j *Journal, ids []string) {
				// Compacted file synced but never renamed: rollback to the
				// full pre-compaction journal.
				if want := appendIDs(4); !reflect.DeepEqual(ids, want) {
					t.Fatalf("replayed %v, want pre-compaction %v", ids, want)
				}
			}},
		{faultinject.PointJournalCompactCrashCommit + ":nth=1", "compact", false,
			func(t *testing.T, j *Journal, ids []string) {
				// Renamed: the compacted file is the journal, even though
				// Compact never returned to the caller.
				if want := []string{"c-0", "c-1"}; !reflect.DeepEqual(ids, want) {
					t.Fatalf("replayed %v, want compacted %v", ids, want)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal")

			cmd := exec.Command(os.Args[0], "-test.run", "TestJournalCrashScenarioChild$")
			cmd.Env = append(os.Environ(),
				envCrashScenario+"="+tc.scenario,
				envCrashPath+"="+path,
				envCrashFaults+"=seed=1;"+tc.point,
			)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != faultinject.CrashExitCode {
				t.Fatalf("child exit = %v, want crash exit %d\n%s", err, faultinject.CrashExitCode, out)
			}
			if _, err := os.Stat(path + ".tmp"); (err == nil) != tc.tmpLeft {
				t.Fatalf("temp file after the crash: %v, want present=%v", err, tc.tmpLeft)
			}

			j, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer j.Close()
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Fatal("temp file survived the recovery open")
			}
			first := j.Records()
			tc.check(t, j, recordIDs(first))

			// The recovered journal must accept appends...
			if err := j.Append(rec("post-crash", RecordSubmitted)); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			j.Close()

			// ...and a second open must converge: no residual damage,
			// identical records plus the new append.
			j2, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("second open: %v", err)
			}
			defer j2.Close()
			if j2.Repaired() != 0 {
				t.Fatalf("recovery did not converge: %d bytes repaired on reopen", j2.Repaired())
			}
			want := append(recordIDs(first), "post-crash")
			if got := recordIDs(j2.Records()); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopen replayed %v, want %v", got, want)
			}
		})
	}
}

func recordIDs(recs []Record) []string {
	ids := make([]string, len(recs))
	for i, r := range recs {
		ids[i] = r.ID
	}
	return ids
}
