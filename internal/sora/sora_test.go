package sora

import (
	"strings"
	"testing"
	"testing/quick"
)

// mediDelivery returns the paper's case study parameters (Section III-A).
func mediDelivery() Operation {
	return Operation{
		Name:           "MEDI DELIVERY",
		SpanM:          1.0,
		KineticEnergyJ: 8230,
		Scenario:       BVLOSPopulated,
		Airspace:       Airspace{MaxHeightFt: 394, Urban: true}, // 120 m ≈ 394 ft
	}
}

func TestPaperSectionIIIDNumbers(t *testing.T) {
	// Intrinsic GRC 6, ARC-c, SAIL V with M3@medium; SAIL VI without M3.
	op := mediDelivery()
	op.Mitigations = []Mitigation{{Type: M3, Integrity: Medium, Assurance: Medium}}
	a := Assess(op)
	if a.IntrinsicGRC != 6 {
		t.Errorf("intrinsic GRC = %d, want 6", a.IntrinsicGRC)
	}
	if a.InitialARC != ARCc {
		t.Errorf("initial ARC = %v, want ARC-c", a.InitialARC)
	}
	if a.FinalGRC != 6 {
		t.Errorf("final GRC with M3@medium = %d, want 6", a.FinalGRC)
	}
	if a.Err != nil || a.SAIL != SAILV {
		t.Errorf("SAIL = %v (err %v), want SAIL V", a.SAIL, a.Err)
	}

	noM3 := mediDelivery()
	b := Assess(noM3)
	if b.FinalGRC != 7 {
		t.Errorf("final GRC without M3 = %d, want 7 (paper: 'at least 6, 7 if no M3')", b.FinalGRC)
	}
	if b.Err != nil || b.SAIL != SAILVI {
		t.Errorf("SAIL without M3 = %v, want SAIL VI", b.SAIL)
	}
}

func TestELMitigationLowersSAIL(t *testing.T) {
	// The paper's motivation: with EL accepted as an active-M1 mitigation at
	// medium robustness, the final GRC drops by 2, easing certification.
	op := mediDelivery()
	op.Mitigations = []Mitigation{
		{Type: M3, Integrity: Medium, Assurance: Medium},
		{Type: ActiveM1, Integrity: Medium, Assurance: Medium},
	}
	a := Assess(op)
	if a.FinalGRC != 4 {
		t.Errorf("final GRC with EL@medium = %d, want 4", a.FinalGRC)
	}
	if a.SAIL != SAILIV {
		t.Errorf("SAIL with EL = %v, want SAIL IV", a.SAIL)
	}
	baseline := mediDelivery()
	baseline.Mitigations = []Mitigation{{Type: M3, Integrity: Medium, Assurance: Medium}}
	if base := Assess(baseline); a.SAIL >= base.SAIL {
		t.Errorf("EL did not lower SAIL: %v vs %v", a.SAIL, base.SAIL)
	}
	// OSO burden must shrink accordingly.
	withEL := OSOBurden(a.SAIL)[High]
	without := OSOBurden(SAILV)[High]
	if withEL >= without {
		t.Errorf("high-robustness OSO count with EL (%d) not below without (%d)", withEL, without)
	}
}

func TestIntrinsicGRCTable(t *testing.T) {
	tests := []struct {
		name     string
		scenario OperationalScenario
		span, ke float64
		want     int
	}{
		{"micro VLOS controlled", ControlledGround, 0.5, 300, 1},
		{"paper case", BVLOSPopulated, 1.0, 8230, 6},
		{"small VLOS sparse", VLOSSparse, 1.0, 600, 2},
		{"3m BVLOS sparse", BVLOSSparse, 3.0, 20_000, 4},
		{"8m VLOS populated", VLOSPopulated, 8.0, 500_000, 6},
		{"heavy BVLOS populated", BVLOSPopulated, 10, 2e6, 10},
		{"KE dominates dimension", VLOSSparse, 0.8, 50_000, 4}, // col 2 via energy
		{"gathering VLOS", VLOSGathering, 1, 700, 7},
		{"gathering BVLOS", BVLOSGathering, 1, 700, 8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IntrinsicGRC(tt.scenario, tt.span, tt.ke); got != tt.want {
				t.Errorf("IntrinsicGRC(%v, %v, %v) = %d, want %d",
					tt.scenario, tt.span, tt.ke, got, tt.want)
			}
		})
	}
}

func TestInitialARC(t *testing.T) {
	tests := []struct {
		name string
		a    Airspace
		want ARC
	}{
		{"paper urban <500ft", Airspace{MaxHeightFt: 394, Urban: true}, ARCc},
		{"rural <500ft", Airspace{MaxHeightFt: 394}, ARCb},
		{"above 500ft", Airspace{MaxHeightFt: 1000, Urban: true}, ARCd},
		{"controlled", Airspace{MaxHeightFt: 300, Controlled: true}, ARCd},
		{"atypical segregated", Airspace{MaxHeightFt: 394, Urban: true, Atypical: true}, ARCa},
	}
	for _, tt := range tests {
		if got := InitialARC(tt.a); got != tt.want {
			t.Errorf("%s: ARC = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestFinalGRCMitigationCredits(t *testing.T) {
	m3med := Mitigation{Type: M3, Integrity: Medium, Assurance: Medium}
	tests := []struct {
		name string
		mits []Mitigation
		want int
	}{
		{"no mitigations: M3 penalty", nil, 7},
		{"M3 medium", []Mitigation{m3med}, 6},
		{"M3 high", []Mitigation{{Type: M3, Integrity: High, Assurance: High}}, 5},
		{"M1 low + M3 med", []Mitigation{{Type: M1, Integrity: Low, Assurance: Low}, m3med}, 5},
		{"M1 high + M3 med", []Mitigation{{Type: M1, Integrity: High, Assurance: High}, m3med}, 2},
		{"M2 medium + M3 med", []Mitigation{{Type: M2, Integrity: Medium, Assurance: Medium}, m3med}, 5},
		{"M2 low gives nothing", []Mitigation{{Type: M2, Integrity: Low, Assurance: Low}, m3med}, 6},
		{"robustness = min(I,A)", []Mitigation{{Type: M1, Integrity: High, Assurance: Low}, m3med}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := FinalGRC(6, tt.mits); got != tt.want {
				t.Errorf("FinalGRC(6, %v) = %d, want %d", tt.name, got, tt.want)
			}
		})
	}
}

func TestFinalGRCFloorsAtOne(t *testing.T) {
	mits := []Mitigation{
		{Type: M1, Integrity: High, Assurance: High},
		{Type: M3, Integrity: High, Assurance: High},
	}
	if got := FinalGRC(2, mits); got != 1 {
		t.Errorf("FinalGRC floor = %d, want 1", got)
	}
}

func TestSAILOutsideSpecificCategory(t *testing.T) {
	op := mediDelivery()
	op.SpanM = 10
	op.KineticEnergyJ = 2e6 // BVLOS populated col 4 → GRC 10
	a := Assess(op)
	if a.Err == nil {
		t.Fatal("expected specific-category error for GRC 10")
	}
	if !strings.Contains(a.Err.Error(), "certified") {
		t.Errorf("error should mention certified category: %v", a.Err)
	}
}

func TestCombineRobustness(t *testing.T) {
	if CombineRobustness(High, Low) != Low || CombineRobustness(Low, High) != Low {
		t.Error("robustness must be the minimum of integrity and assurance")
	}
	if CombineRobustness(Medium, Medium) != Medium {
		t.Error("equal levels combine to themselves")
	}
	property := func(i, a uint8) bool {
		ri, ra := Robustness(i%4), Robustness(a%4)
		c := CombineRobustness(ri, ra)
		return c <= ri && c <= ra && (c == ri || c == ra)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOSOTable(t *testing.T) {
	list := osoTable
	if len(list) != 24 {
		t.Fatalf("OSO count = %d, want 24", len(list))
	}
	for i, o := range list {
		if o.Number != i+1 {
			t.Errorf("OSO %d numbered %d", i+1, o.Number)
		}
		if o.Text == "" {
			t.Errorf("OSO %d missing text", o.Number)
		}
		// Requirements must be monotone non-decreasing with SAIL.
		for s := 1; s < 6; s++ {
			if o.PerSAIL[s] < o.PerSAIL[s-1] {
				t.Errorf("OSO %d robustness decreases from SAIL %d to %d", o.Number, s, s+1)
			}
		}
	}
	// Higher SAIL must impose a strictly heavier High-robustness burden.
	prev := -1
	for s := SAILI; s <= SAILVI; s++ {
		burden := OSOBurden(s)[High]
		if burden < prev {
			t.Errorf("high burden decreased at %v", s)
		}
		prev = burden
	}
	if OSOBurden(SAILVI)[High] != 24 {
		t.Errorf("SAIL VI should require all 24 OSOs at High, got %d", OSOBurden(SAILVI)[High])
	}
}

func TestELCriteriaEvaluation(t *testing.T) {
	// No evidence: None/None.
	integ, assur := EvaluateEL(Evidence{})
	if integ != None || assur != None {
		t.Errorf("empty evidence = %v/%v, want None/None", integ, assur)
	}
	// Low integrity requires both low criteria.
	integ, _ = EvaluateEL(Evidence{"EL-I-L1": true})
	if integ != None {
		t.Errorf("half the low criteria gave %v", integ)
	}
	integ, _ = EvaluateEL(Evidence{"EL-I-L1": true, "EL-I-L2": true})
	if integ != Low {
		t.Errorf("low criteria met gave %v", integ)
	}
	// Medium requires low + medium (cumulative).
	integ, _ = EvaluateEL(Evidence{"EL-I-M1": true})
	if integ != None {
		t.Errorf("medium without low gave %v", integ)
	}
	full := Evidence{
		"EL-I-L1": true, "EL-I-L2": true, "EL-I-M1": true, "EL-I-H1": true,
		"EL-A-L1": true, "EL-A-M1": true, "EL-A-M2": true, "EL-A-M3": true,
	}
	integ, assur = EvaluateEL(full)
	if integ != High {
		t.Errorf("full integrity evidence = %v, want High", integ)
	}
	if assur != Medium {
		t.Errorf("assurance without third-party validation = %v, want Medium", assur)
	}
	m := ELMitigation(full)
	if m.Type != ActiveM1 || m.Robustness() != Medium {
		t.Errorf("EL mitigation = %v robustness %v, want ActiveM1 Medium", m.Type, m.Robustness())
	}
}

func TestStringers(t *testing.T) {
	tests := []struct {
		v    interface{ String() string }
		want string
	}{
		{ARCc, "ARC-c"}, {ARCa, "ARC-a"}, {SAILV, "SAIL V"}, {SAILI, "SAIL I"},
		{High, "High"}, {None, "None"},
		{BVLOSPopulated, "BVLOS in populated environment"},
		{ActiveM1, "active-M1 emergency landing"},
		{Integrity, "integrity"}, {Assurance, "assurance"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestReportRendering(t *testing.T) {
	op := mediDelivery()
	op.Mitigations = []Mitigation{{Type: M3, Integrity: Medium, Assurance: Medium}}
	rep := Assess(op).Report(op.Name)
	for _, want := range []string{"MEDI DELIVERY", "intrinsic GRC : 6", "ARC-c", "SAIL V"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	tbl := CriteriaTable(Integrity)
	if !strings.Contains(tbl, "Table III") || !strings.Contains(tbl, "EL-I-L1") {
		t.Errorf("criteria table malformed:\n%s", tbl)
	}
	tbl = CriteriaTable(Assurance)
	if !strings.Contains(tbl, "Table IV") {
		t.Errorf("assurance table malformed:\n%s", tbl)
	}
}
