package faultinject

// The fault-point catalog. Every injection site in the tree evaluates
// one of these names; Parse rejects names outside the catalog so a
// typo in a chaos profile fails loudly instead of silently arming
// nothing. Grouped by where the site cuts:
//
// Network, client side (faultinject.Transport, wrapped around every
// worker control-plane and remote-store HTTP client):
//
//	net.delay             sleep before sending (param ms)
//	net.request.drop      fail before the request is sent
//	net.request.dup       send the request twice (at-least-once delivery;
//	                      only when the body is replayable)
//	net.response.drop     send the request, then lose the response — the
//	                      server-side effect happened, the client errors
//	net.response.truncate deliver a body that dies halfway through
//
// Network, server side (faultinject.Middleware, mounted by cabt-serve
// on the worker-protocol and store-protocol routes only — the tenant
// API stays clean so chaos runs can still be byte-verified through it):
//
//	server.delay          sleep before handling (param ms)
//	server.drop           abort the connection without a response
//	server.err            answer 503 without running the handler
//
// Disk (journal and store write paths):
//
//	journal.append.torn   write a partial frame, then fail the append
//	journal.sync.err      the append's fsync reports an I/O error
//	journal.write.enospc  the append's write reports ENOSPC
//	store.write.enospc    a store object write reports ENOSPC
//
// Process crash (CrashFn: os.Exit(CrashExitCode), modeling power loss
// at that line; the journal points are exercised by subprocess tests,
// the worker point by the chaos soak and CI):
//
//	journal.append.crash.torn    die after writing a partial frame
//	journal.append.crash.synced  die after a durable append
//	journal.compact.crash.segment die after the compacted <path>.tmp is
//	                             synced, before it is renamed over the
//	                             journal
//	journal.compact.crash.commit die after the rename, before the
//	                             journal reopens the new file
//	worker.complete.crash        die after executing a task, before
//	                             reporting it (lease expiry re-runs it)
//	server.complete.crash        die while handling a completion
//	store.put.crash              die while handling a store-protocol PUT
const (
	PointNetDelay            = "net.delay"
	PointNetRequestDrop      = "net.request.drop"
	PointNetRequestDup       = "net.request.dup"
	PointNetResponseDrop     = "net.response.drop"
	PointNetResponseTruncate = "net.response.truncate"

	PointServerDelay = "server.delay"
	PointServerDrop  = "server.drop"
	PointServerErr   = "server.err"

	PointJournalAppendTorn  = "journal.append.torn"
	PointJournalSyncErr     = "journal.sync.err"
	PointJournalWriteENOSPC = "journal.write.enospc"
	PointStoreWriteENOSPC   = "store.write.enospc"

	PointJournalAppendCrashTorn    = "journal.append.crash.torn"
	PointJournalAppendCrashSynced  = "journal.append.crash.synced"
	PointJournalCompactCrashSeg    = "journal.compact.crash.segment"
	PointJournalCompactCrashCommit = "journal.compact.crash.commit"
	PointWorkerCompleteCrash       = "worker.complete.crash"
	PointServerCompleteCrash       = "server.complete.crash"
	PointStorePutCrash             = "store.put.crash"
)

// catalog is the set Parse validates against.
var catalog = map[string]bool{
	PointNetDelay:            true,
	PointNetRequestDrop:      true,
	PointNetRequestDup:       true,
	PointNetResponseDrop:     true,
	PointNetResponseTruncate: true,

	PointServerDelay: true,
	PointServerDrop:  true,
	PointServerErr:   true,

	PointJournalAppendTorn:  true,
	PointJournalSyncErr:     true,
	PointJournalWriteENOSPC: true,
	PointStoreWriteENOSPC:   true,

	PointJournalAppendCrashTorn:    true,
	PointJournalAppendCrashSynced:  true,
	PointJournalCompactCrashSeg:    true,
	PointJournalCompactCrashCommit: true,
	PointWorkerCompleteCrash:       true,
	PointServerCompleteCrash:       true,
	PointStorePutCrash:             true,
}

func validPoint(name string) bool { return catalog[name] }

// defaultPoints is the built-in chaos profile ("default" in a spec):
// every network fault the transport and middleware can produce at rates
// that fire many times over a 16-job batch, the non-fatal disk faults,
// and one crash point — each worker process dies after its fourth
// completed task, so a respawning worker fleet (or the soak harness's
// replacement workers) is exercised along with lease expiry.
//
// The rates are chosen so a batch completes in seconds despite dozens
// of injected failures: every fault here is one the self-healing layer
// (retry/backoff, lease expiry, journal recovery, store quarantine)
// must absorb without failing a single job or perturbing a single
// result byte.
func defaultPoints() []Point {
	return []Point{
		{Name: PointNetDelay, P: 0.05, MS: 3},
		{Name: PointNetRequestDrop, P: 0.04},
		{Name: PointNetRequestDup, P: 0.03},
		{Name: PointNetResponseDrop, P: 0.04},
		{Name: PointNetResponseTruncate, P: 0.03},
		{Name: PointServerDelay, P: 0.04, MS: 3},
		{Name: PointServerDrop, P: 0.04},
		{Name: PointServerErr, P: 0.04},
		{Name: PointJournalSyncErr, P: 0.05},
		{Name: PointJournalAppendTorn, P: 0.03},
		{Name: PointJournalWriteENOSPC, P: 0.02},
		{Name: PointStoreWriteENOSPC, P: 0.02},
		{Name: PointWorkerCompleteCrash, Nth: 5},
	}
}

// DefaultProfile returns the built-in chaos profile armed with seed.
func DefaultProfile(seed int64) *Plan { return NewPlan(seed, defaultPoints()) }
