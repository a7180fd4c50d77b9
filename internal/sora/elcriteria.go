package sora

// This file encodes the paper's contribution to the SORA: the integrity
// criteria (Table III) and assurance criteria (Table IV) under which an
// Emergency Landing function can claim active-M1 mitigation credit, plus an
// evidence-based evaluator that determines the integrity/assurance levels an
// implementation achieves.

// CriterionKind separates integrity criteria from assurance criteria.
type CriterionKind int

// Criterion kinds.
const (
	Integrity CriterionKind = iota
	Assurance
)

// String names the kind.
func (k CriterionKind) String() string {
	if k == Integrity {
		return "integrity"
	}
	return "assurance"
}

// Criterion is one requirement of Table III or Table IV.
type Criterion struct {
	// ID is the paper-style identifier, e.g. "EL-I-L1" (integrity, low,
	// first item).
	ID string
	// Kind is integrity or assurance.
	Kind CriterionKind
	// Level is the robustness level the criterion contributes to.
	Level Robustness
	// Text is the criterion as proposed by the paper.
	Text string
}

// ELIntegrityCriteria returns the paper's Table III ("proposed new criteria
// for EL (active-M1)").
func ELIntegrityCriteria() []Criterion {
	return []Criterion{
		{ID: "EL-I-L1", Kind: Integrity, Level: Low,
			Text: "The selected landing zones do not contain high risk areas (as defined in the severity analysis)"},
		{ID: "EL-I-L2", Kind: Integrity, Level: Low,
			Text: "The method is effective under the conditions of the operation (specific city, flight altitude, time of the day, season)"},
		{ID: "EL-I-M1", Kind: Integrity, Level: Medium,
			Text: "Landing zone selection takes into account improbable single malfunctions or failures, meteorological conditions (e.g. wind), UAV latencies, behavior and performance when activating the measure"},
		{ID: "EL-I-H1", Kind: Integrity, Level: High,
			Text: "Same as Medium (validated against adverse conditions and failures in the landing zone definition)"},
	}
}

// ELAssuranceCriteria returns the paper's Table IV.
func ELAssuranceCriteria() []Criterion {
	return []Criterion{
		{ID: "EL-A-L1", Kind: Assurance, Level: Low,
			Text: "The applicant declares that the required level of integrity is achieved"},
		{ID: "EL-A-M1", Kind: Assurance, Level: Medium,
			Text: "Supporting evidence to claim the required level of integrity (testing on public datasets, testing in context)"},
		{ID: "EL-A-M2", Kind: Assurance, Level: Medium,
			Text: "The video data used for in-context testing are recorded and verified by applicable authority"},
		{ID: "EL-A-M3", Kind: Assurance, Level: Medium,
			Text: "Safety monitoring techniques are in place to ensure proper behavior of any function relying on complex computer vision or machine learning"},
		{ID: "EL-A-H1", Kind: Assurance, Level: High,
			Text: "The claimed level of integrity is validated by a competent third party"},
		{ID: "EL-A-H2", Kind: Assurance, Level: High,
			Text: "The method was extensively validated under a wide range of external conditions (lighting, weather)"},
	}
}

// Evidence records which EL criteria an implementation satisfies, keyed by
// criterion ID. Missing entries count as unsatisfied.
type Evidence map[string]bool

// EvaluateEL determines the integrity and assurance levels achieved by an EL
// implementation from its evidence, following the cumulative reading of
// Tables III/IV: a level is achieved only when all its criteria and all
// criteria of lower levels hold.
func EvaluateEL(ev Evidence) (integrity, assurance Robustness) {
	integrity = achievedLevel(ELIntegrityCriteria(), ev)
	assurance = achievedLevel(ELAssuranceCriteria(), ev)
	return integrity, assurance
}

func achievedLevel(criteria []Criterion, ev Evidence) Robustness {
	achieved := None
	for _, level := range []Robustness{Low, Medium, High} {
		ok := true
		for _, c := range criteria {
			if c.Level == level && !ev[c.ID] {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		achieved = level
	}
	return achieved
}

// ELMitigation builds the active-M1 mitigation claim from evidence.
func ELMitigation(ev Evidence) Mitigation {
	integ, assur := EvaluateEL(ev)
	return Mitigation{Type: ActiveM1, Integrity: integ, Assurance: assur}
}
