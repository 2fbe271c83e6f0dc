package server

import "time"

// This file is the durable half of the cluster's lease table. The
// coordinator (internal/cluster) keeps its lease state in memory behind
// one mutex; a coordinator restart used to lose every in-flight lease and
// fail the jobs even though the job store survived. The fileStore now
// journals each lease grant alongside the job records in the same WAL, so
// a restarted coordinator re-adopts live leases: the first report that
// carries a recovered lease's token adopts it, and the worker keeps
// solving; a lease no report claims within the lease TTL of the restart
// is re-queued without charging the job's retry budget. See DESIGN.md
// §9/§10.

// LeaseRecord is the persisted form of one lease grant: everything a
// restarted coordinator needs to recognize the worker when it comes back
// (the token), resume the attempt accounting (the attempt number), and
// correlate the recovered job end to end (the trace ID). It is written on
// every grant and adoption, and tombstoned when the lease ends — resolve,
// re-queue, or cancellation.
type LeaseRecord struct {
	JobID      string `json:"job_id"`
	WorkerID   string `json:"worker_id"`
	WorkerName string `json:"worker_name,omitempty"`
	// Token is the lease's credential: a random secret handed to the
	// worker with the lease and carried by every report. A matching token
	// proves the reporter holds this exact grant, not a stale or forged
	// one, so after a restart it is what adopts the lease.
	Token string `json:"token"`
	// Attempt is the 1-based lease count of the job at grant time; a
	// re-adopted lease resumes this attempt rather than charging a new one.
	Attempt int       `json:"attempt"`
	Granted time.Time `json:"granted"`
	// Deadline is the lease expiry at grant time — informational after a
	// restart (a recovered lease expires at the successor's start plus the
	// lease TTL, since the coordinator was down for an unknown span).
	Deadline time.Time `json:"deadline"`
	TraceID  string    `json:"trace_id,omitempty"`
}

// LeaseStore is the durable lease table the coordinator journals through.
// The file-backed job store implements it (the lease records ride the
// same WAL as the job records); the in-memory store does not — without a
// store directory there is nothing for a restart to recover anyway. Get
// one from Server.LeaseStore.
type LeaseStore interface {
	// PutLease journals a grant or adoption (full-state, idempotent:
	// the latest record for a job ID wins on replay).
	PutLease(rec LeaseRecord)
	// DropLease tombstones a job's lease — the lease resolved, re-queued,
	// or was cancelled, so a restart must not offer it for adoption.
	DropLease(jobID string)
	// RecoveredLeases returns the leases that were live at the last
	// shutdown or crash, already merged against the recovered job states:
	// a lease whose job is terminal (or gone) is dropped, never returned.
	RecoveredLeases() []LeaseRecord
}

// LeaseStore returns the server's durable lease table, or nil when the
// job store is in-memory. Hand it to the cluster coordinator's Config so
// lease grants survive a coordinator restart.
func (s *Server) LeaseStore() LeaseStore {
	if ls, ok := s.store.(LeaseStore); ok {
		return ls
	}
	return nil
}

// PutLease implements LeaseStore: journal the grant in the WAL, fsynced —
// a lease record that misses the disk is a worker the restarted
// coordinator cannot adopt, which is exactly the failure this layer
// exists to remove.
func (fs *fileStore) PutLease(rec LeaseRecord) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.leases[rec.JobID] = rec
	fs.appendLeaseLocked(jobRecord{Op: opLease, Seq: fs.seq, ID: rec.JobID, Lease: &rec}, true) //icpp98:allow lockscope the lease journal rides the job WAL under the store mutex — same sanctioned ordering contract as the memStore mutation sink
}

// DropLease implements LeaseStore. The tombstone is not fsynced: losing
// it merely makes a restart recover a lease nobody holds, which expires
// harmlessly.
func (fs *fileStore) DropLease(jobID string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.leases[jobID]; !ok {
		return
	}
	delete(fs.leases, jobID)
	fs.appendLeaseLocked(jobRecord{Op: opUnlease, Seq: fs.seq, ID: jobID}, false) //icpp98:allow lockscope the lease journal rides the job WAL under the store mutex — same sanctioned ordering contract as the memStore mutation sink
}

// RecoveredLeases implements LeaseStore: the leases that survived
// recovery (openFileStore already dropped any whose job is terminal or
// missing).
func (fs *fileStore) RecoveredLeases() []LeaseRecord {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]LeaseRecord, 0, len(fs.adoptable))
	out = append(out, fs.adoptable...)
	return out
}

// appendLeaseLocked journals one lease record through the same WAL (and
// compaction accounting) as the job records; the caller holds the store
// mutex. File errors are reported, not fatal — matching appendLocked.
func (fs *fileStore) appendLeaseLocked(rec jobRecord, sync bool) {
	if fs.wal == nil {
		return
	}
	fs.writeRecordLocked(rec, sync)
}
