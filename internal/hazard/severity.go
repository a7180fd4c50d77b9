// Package hazard implements the paper's Section III-B preliminary hazard
// analysis substrate: the severity scale (Table I), the main ground-risk
// outcomes (Table II), the Belcastro-style hazard taxonomy the analysis
// extends, and a quantitative casualty model that lets the severity ratings
// be *derived* from simulated impacts instead of merely asserted.
package hazard

import "fmt"

// Severity rates the worst credible outcome of a hazardous event, following
// the paper's Table I.
type Severity int

// Severity levels (Table I).
const (
	Negligible   Severity = 1 // no effect
	Minor        Severity = 2 // slight injury or damage to the drone
	Serious      Severity = 3 // important injury or damage to critical infrastructure, environment
	Major        Severity = 4 // single fatal injury
	Catastrophic Severity = 5 // multiple fatal injuries
)

// String returns the Table I severity name.
func (s Severity) String() string {
	switch s {
	case Negligible:
		return "Negligible"
	case Minor:
		return "Minor"
	case Serious:
		return "Serious"
	case Major:
		return "Major"
	case Catastrophic:
		return "Catastrophic"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Description returns the Table I description of the level.
func (s Severity) Description() string {
	switch s {
	case Negligible:
		return "No effect"
	case Minor:
		return "Slight injury or damage to the drone"
	case Serious:
		return "Important injury or damage to critical infrastructures, environment"
	case Major:
		return "Single fatal injury"
	case Catastrophic:
		return "Multiple fatal injuries"
	default:
		return "unknown"
	}
}

// SeverityTable returns Table I in order.
func SeverityTable() []Severity {
	return []Severity{Negligible, Minor, Serious, Major, Catastrophic}
}

// Category is one of the hazard categories from the Belcastro et al. (2017)
// analysis of civil UAV operations the paper builds on.
type Category int

// The fourteen Belcastro hazard categories.
const (
	LossOfControl Category = iota
	ControlledFlightIntoTerrain
	FlyAway
	LostCommunication
	LossOfNavigation
	PropulsionFailure
	MidAirCollision
	WildlifeStrike
	StructuralFailure
	AdverseWeather
	HumanOperatorError
	GroundStationFailure
	PayloadHazard
	CyberAttack

	// NumCategories is the number of hazard categories.
	NumCategories = 14
)

// categoryNames is indexed by Category.
var categoryNames = [NumCategories]string{
	"loss of control",
	"controlled flight into terrain/obstacle",
	"fly-away",
	"lost communication",
	"loss of navigation",
	"propulsion failure",
	"mid-air collision",
	"wildlife strike",
	"structural failure",
	"adverse weather",
	"human operator error",
	"ground station failure",
	"payload hazard",
	"cyber attack",
}

// String returns the category name.
func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("category(%d)", int(c))
}
