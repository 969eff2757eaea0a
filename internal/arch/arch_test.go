package arch

import (
	"strings"
	"testing"
)

func TestDefaultConfigValidates(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no procs", func(c *Config) { c.Procs = 0 }},
		{"negative procs", func(c *Config) { c.Procs = -1 }},
		{"no memory", func(c *Config) { c.MemWords = 0 }},
		{"no store buffer", func(c *Config) { c.StoreBufferDepth = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig()
			tc.mut(&c)
			if err := c.Validate(); err == nil {
				t.Error("validation accepted a broken config")
			}
		})
	}
}

// TestValidateMemWordsLimit pins the boundary and the reason: the largest
// memory whose addresses fingerprint distinctly is accepted, one word
// more is refused with the aliasing explanation.
func TestValidateMemWordsLimit(t *testing.T) {
	c := DefaultConfig()
	c.MemWords = MaxMemWords
	if err := c.Validate(); err != nil {
		t.Fatalf("MemWords = MaxMemWords rejected: %v", err)
	}
	c.MemWords++
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "two-byte addresses") {
		t.Fatalf("MemWords = MaxMemWords+1: got %v, want the address-range reason", err)
	}
}

func TestDefaultCostModelCalibration(t *testing.T) {
	m := DefaultCostModel()
	// The ordering the paper's argument depends on: a register op is
	// cheaper than a cache hit, which is cheaper than a cache-to-cache
	// transfer, which is cheaper than memory; the signal round trip
	// dwarfs the LE/ST round trip by roughly two orders of magnitude.
	if !(m.RegOp < m.L1Hit && m.L1Hit < m.CacheTransfer && m.CacheTransfer < m.MemAccess) {
		t.Errorf("cost ordering broken: %+v", m)
	}
	if m.SignalRoundTrip < 50*m.LESTRoundTrip {
		t.Errorf("signal (%d) vs LE/ST (%d): gap too small to reproduce §5",
			m.SignalRoundTrip, m.LESTRoundTrip)
	}
	if m.MfenceBase <= 0 || m.StoreBufferDrainPerEntry <= 0 {
		t.Error("fence costs must be positive")
	}
}

func TestProcIDString(t *testing.T) {
	if got := ProcID(3).String(); got != "P3" {
		t.Errorf("ProcID(3) = %q", got)
	}
	if got := NoProc.String(); !strings.Contains(got, "none") {
		t.Errorf("NoProc = %q", got)
	}
}

func TestProtocolString(t *testing.T) {
	for p, want := range map[Protocol]string{MESI: "MESI", MSI: "MSI", MOESI: "MOESI"} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	if got := Protocol(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown protocol = %q", got)
	}
}
