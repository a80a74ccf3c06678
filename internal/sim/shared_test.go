package sim

import "testing"

func sharedCfg(quota []int) Config {
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 80_000
	cfg.SharedL2 = true
	cfg.L2WayQuota = quota
	// A 1 MB shared L2 replaces four 256 KB private ones.
	cfg.L2.SizeBytes = 1 << 20
	return cfg
}

func TestSharedL2SystemRuns(t *testing.T) {
	profs := mustProfiles(t, "hmmer", "milc", "gromacs", "gobmk")
	sys, err := New(sharedCfg(nil), profs) // nil quota: even split
	if err != nil {
		t.Fatal(err)
	}
	if sys.sharedL2 == nil {
		t.Fatal("shared L2 missing")
	}
	sys.Warmup()
	sys.Run(50_000)
	sys.ResetStats()
	sys.Run(300_000)
	res := sys.Results()
	for _, a := range res.Apps {
		if a.IPC <= 0 || a.APC <= 0 {
			t.Fatalf("%s made no progress: %+v", a.Name, a)
		}
	}
}

func TestSharedL2QuotaAffectsAPI(t *testing.T) {
	// The paper's footnote-1 claim: with a shared partitioned L2, an
	// application's off-chip API depends on its capacity share. Give hmmer
	// (cache-friendly mid set) a large vs tiny share and compare its API.
	run := func(quota []int) float64 {
		profs := mustProfiles(t, "hmmer", "milc", "soplex", "omnetpp")
		sys, err := New(sharedCfg(quota), profs)
		if err != nil {
			t.Fatal(err)
		}
		sys.Warmup()
		sys.Run(50_000)
		sys.ResetStats()
		sys.Run(400_000)
		return sys.Results().Apps[0].API
	}
	small := run([]int{1, 3, 2, 2})
	large := run([]int{5, 1, 1, 1})
	if large >= small {
		t.Fatalf("more L2 capacity should cut hmmer's off-chip API: 1-way %v vs 5-way %v", small, large)
	}
}

func TestSharedL2PrivateTopologyUnaffected(t *testing.T) {
	// Private topology must not instantiate the shared cache.
	profs := mustProfiles(t, "gobmk")
	sys, err := New(fastCfg(), profs)
	if err != nil {
		t.Fatal(err)
	}
	if sys.sharedL2 != nil {
		t.Fatal("private topology built a shared L2")
	}
}

func TestSharedL2BadQuotaRejected(t *testing.T) {
	profs := mustProfiles(t, "gobmk", "milc")
	cfg := sharedCfg([]int{20, 20}) // exceeds 8 ways
	if _, err := New(cfg, profs); err == nil {
		t.Fatal("overcommitted quota accepted")
	}
}
