// Certification walks the paper's Section III-D argument: the SORA
// assessment of MEDI DELIVERY is prohibitive without new mitigations, and
// accepting Emergency Landing as an active-M1 mitigation (Tables III/IV)
// lowers the SAIL. No model training needed — this is the pure
// risk-assessment side of the reproduction.
//
//	go run ./examples/certification
package main

import (
	"fmt"

	"safeland"
	"safeland/internal/core"
	"safeland/internal/sora"
	"safeland/internal/uav"
)

func main() {
	spec := uav.MediDelivery()
	op := safeland.Operation(spec)
	fmt.Printf("case study: %s — %.1f m span, %.0f kg, %.0f m AGL over a city, BVLOS\n",
		spec.Name, spec.SpanM, spec.MTOWKg, spec.CruiseAltM)
	fmt.Printf("ballistic speed %.1f m/s, kinetic energy %.2f kJ\n\n",
		uav.BallisticImpactSpeed(spec.CruiseAltM), op.KineticEnergyJ/1000)

	// Step 1: the paper's finding — without applicable mitigations the
	// operation sits at SAIL V/VI.
	fmt.Println("1) SORA with the standard mitigations only:")
	op.Mitigations = nil
	fmt.Print(sora.Assess(op).Report("no mitigation"))
	op.Mitigations = []sora.Mitigation{{Type: sora.M3, Integrity: sora.Medium, Assurance: sora.Medium}}
	fmt.Print(sora.Assess(op).Report("M3 (ERP) at medium robustness"))

	// Step 2: the paper's proposal — EL as active-M1. The robustness this
	// implementation can claim follows from its evidence against Tables
	// III/IV.
	fmt.Println("\n2) EL self-assessment against the proposed criteria (Tables III/IV):")
	claims := core.Claims{
		InContextTesting:      true, // E7 in-distribution evaluation
		OODValidation:         true, // E7 sunset study + E10 ablations
		AuthorityVerifiedData: true, // assumed granted for this walkthrough
	}
	integ, assur := sora.EvaluateEL(core.SelfAssessment(claims))
	elMit := core.MitigationClaim(claims)
	fmt.Printf("   integrity %s, assurance %s -> robustness %s\n", integ, assur, elMit.Robustness())

	fmt.Println("\n3) SORA with EL accepted as an active-M1 mitigation:")
	// safeland.Certify bundles the M3 medium emergency response plan with
	// the EL claim; it needs no trained model, only the vehicle and the
	// claims.
	fmt.Print(safeland.Certify(spec, claims).Report("M3 medium + EL (active-M1)"))

	fmt.Println("\nThe SAIL drop (V -> IV) shrinks the high-robustness OSO burden — the")
	fmt.Println("certification relief the paper argues EL can provide.")
}
