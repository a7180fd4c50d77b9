package core

import "safeland/internal/sora"

// Claims declares the validation activities an applicant has actually
// performed beyond what the implementation provides by construction.
// The distinction matters: Table IV assurance levels hinge on who verified
// what, not only on what the code does.
type Claims struct {
	// InContextTesting: the pipeline was tested on imagery from the
	// operational context (the E7 in-distribution evaluation).
	InContextTesting bool
	// AuthorityVerifiedData: the in-context test data were recorded and
	// verified by the applicable authority (cannot be claimed by a
	// simulation-only repository).
	AuthorityVerifiedData bool
	// OODValidation: behavior was characterized under a wide range of
	// external conditions (the E7 sunset/altitude study + E10 ablations).
	OODValidation bool
	// ThirdPartyValidation: a competent third party validated the claimed
	// integrity.
	ThirdPartyValidation bool
}

// SelfAssessment maps this implementation onto the paper's Table III/IV
// criteria and returns the evidence set for the SORA evaluator.
//
// Criteria satisfied by construction:
//   - EL-I-L1: zones exclude predicted busy-road pixels with a hard buffer
//     and demand a landable-surface majority.
//   - EL-I-L2: effectiveness under the operating conditions is measured by
//     the in-context evaluation when InContextTesting is claimed.
//   - EL-I-M1: DefaultZoneConfig's 15 m road buffer is sized by the drift
//     bound uav.DriftBuffer: it covers the mean parachute drift from the
//     35 m deployment altitude in the moderate 2 m/s wind (12.7 m, no gust
//     margin; a scenario test checks it). The architecture falls back to
//     flight termination on planner failure (single-malfunction
//     tolerance).
//   - EL-A-L1: the applicant declaration is this assessment itself.
//   - EL-A-M3: the Bayesian runtime monitor checks every ML output before
//     landing execution.
func SelfAssessment(c Claims) sora.Evidence {
	ev := sora.Evidence{
		"EL-I-L1": true,
		"EL-I-L2": c.InContextTesting,
		"EL-I-M1": true,
		"EL-I-H1": c.OODValidation,

		"EL-A-L1": true,
		"EL-A-M1": c.InContextTesting,
		"EL-A-M2": c.AuthorityVerifiedData,
		"EL-A-M3": true,
		"EL-A-H1": c.ThirdPartyValidation,
		"EL-A-H2": c.OODValidation,
	}
	return ev
}

// MitigationClaim evaluates the evidence and returns the active-M1
// mitigation this implementation can bring into a SORA assessment.
func MitigationClaim(c Claims) sora.Mitigation {
	return sora.ELMitigation(SelfAssessment(c))
}
