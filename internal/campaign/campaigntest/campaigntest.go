// Package campaigntest holds test helpers shared by the packages that run
// campaigns: the library reference every queue-, cluster- and
// daemon-executed campaign is compared against.
package campaigntest

import (
	"testing"

	"roadrunner/internal/campaign"
)

// LibraryReference computes a manifest's merged canonical artifact on the
// library pool — no queue, no leases, no coordinator, no daemon: the
// independent byte-level ground truth every other way of running the
// manifest must reproduce.
func LibraryReference(t testing.TB, m campaign.Manifest) []byte {
	t.Helper()
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]campaign.Task, len(specs))
	for i, spec := range specs {
		if tasks[i], err = campaign.TaskForSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	sched := campaign.NewScheduler(campaign.Options{Workers: 2, Store: store, Backoff: func(int) {}})
	for _, tr := range sched.Execute(tasks) {
		if tr.Err != nil {
			t.Fatal(tr.Err)
		}
	}
	data, err := campaign.MergedCanonicalBytes(specs, store)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
