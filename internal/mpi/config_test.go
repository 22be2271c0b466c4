package mpi

// White-box tests for Config.normalize: every validation branch and every
// default derivation.

import (
	"testing"

	"hydee/internal/rollback"
)

func TestNormalizeRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero NP", Config{NP: 0}},
		{"negative NP", Config{NP: -4}},
		{"negative CheckpointEvery", Config{NP: 2, CheckpointEvery: -1}},
		{"topology/NP mismatch", Config{NP: 3, Topo: rollback.SingleCluster(2)}},
		{"invalid topology", Config{NP: 2, Topo: rollback.NewTopology([]int{0, 2})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if err := cfg.normalize(); err == nil {
				t.Fatalf("normalize accepted %+v", tc.cfg)
			}
			// The exported wrapper must agree.
			if err := Validate(tc.cfg); err == nil {
				t.Fatalf("Validate accepted %+v", tc.cfg)
			}
		})
	}
}

func TestNormalizeAppliesDefaults(t *testing.T) {
	cfg := Config{NP: 4}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Model == nil || cfg.Model.Name() != "ideal" {
		t.Errorf("Model default: %+v", cfg.Model)
	}
	if cfg.Topo == nil || cfg.Topo.NP != 4 || cfg.Topo.K() != 1 {
		t.Errorf("Topo default: %+v", cfg.Topo)
	}
	if cfg.Protocol == nil || cfg.Protocol.Name() != "native" {
		t.Errorf("Protocol default: %v", cfg.Protocol)
	}
	if cfg.Store == nil {
		t.Error("Store default missing")
	}
}

func TestValidateDoesNotMutate(t *testing.T) {
	cfg := Config{NP: 4}
	if err := Validate(cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Model != nil || cfg.Topo != nil || cfg.Protocol != nil || cfg.Store != nil {
		t.Errorf("Validate mutated its argument: %+v", cfg)
	}
}
