package sora

import "fmt"

// OSO is one Operational Safety Objective from SORA v2.0 Table 6.
type OSO struct {
	Number int
	Text   string
	// PerSAIL is the required robustness at SAIL I..VI; index 0 = SAIL I.
	// A nil-equivalent None means the OSO is optional at that SAIL.
	PerSAIL [6]Robustness
}

// OSORequirement is an OSO with the robustness demanded for one SAIL.
type OSORequirement struct {
	OSO      OSO
	Required Robustness
}

// osoTable transcribes SORA v2.0 Table 6 (O→None, L→Low, M→Medium, H→High).
var osoTable = []OSO{
	{1, "Ensure the operator is competent and/or proven", [6]Robustness{None, Low, Medium, High, High, High}},
	{2, "UAS manufactured by competent and/or proven entity", [6]Robustness{None, None, Low, Medium, High, High}},
	{3, "UAS maintained by competent and/or proven entity", [6]Robustness{Low, Low, Medium, Medium, High, High}},
	{4, "UAS developed to authority recognized design standards", [6]Robustness{None, None, None, Low, Medium, High}},
	{5, "UAS is designed considering system safety and reliability", [6]Robustness{None, None, Low, Medium, High, High}},
	{6, "C3 link performance is appropriate for the operation", [6]Robustness{None, Low, Low, Medium, High, High}},
	{7, "Inspection of the UAS to ensure consistency with the ConOps", [6]Robustness{Low, Low, Medium, Medium, High, High}},
	{8, "Operational procedures are defined, validated and adhered to (technical issue)", [6]Robustness{Low, Medium, High, High, High, High}},
	{9, "Remote crew trained, current and able to control abnormal situations (technical issue)", [6]Robustness{Low, Low, Medium, Medium, High, High}},
	{10, "Safe recovery from a technical issue", [6]Robustness{Low, Low, Medium, Medium, High, High}},
	{11, "Procedures in place to handle deterioration of external systems", [6]Robustness{Low, Medium, High, High, High, High}},
	{12, "UAS designed to manage deterioration of external systems", [6]Robustness{Low, Low, Medium, Medium, High, High}},
	{13, "External services supporting the UAS operation are adequate", [6]Robustness{Low, Low, Medium, High, High, High}},
	{14, "Operational procedures are defined, validated and adhered to (human error)", [6]Robustness{Low, Medium, High, High, High, High}},
	{15, "Remote crew trained, current and able to control abnormal situations (human error)", [6]Robustness{Low, Low, Medium, Medium, High, High}},
	{16, "Multi-crew coordination", [6]Robustness{Low, Low, Medium, Medium, High, High}},
	{17, "Remote crew is fit to operate", [6]Robustness{Low, Low, Medium, Medium, High, High}},
	{18, "Automatic protection of the flight envelope from human errors", [6]Robustness{None, None, Low, Medium, High, High}},
	{19, "Safe recovery from human error", [6]Robustness{None, None, Low, Medium, Medium, High}},
	{20, "A human-factors evaluation has been performed and the HMI found appropriate", [6]Robustness{None, Low, Low, Medium, Medium, High}},
	{21, "Operational procedures are defined, validated and adhered to (adverse conditions)", [6]Robustness{Low, Medium, High, High, High, High}},
	{22, "The remote crew is trained to identify critical environmental conditions and avoid them", [6]Robustness{Low, Low, Medium, Medium, Medium, High}},
	{23, "Environmental conditions for safe operation are defined, measurable and adhered to", [6]Robustness{Low, Low, Medium, Medium, High, High}},
	{24, "UAS is designed and qualified for adverse environmental conditions", [6]Robustness{None, None, Medium, High, High, High}},
}

// OSOsForSAIL returns every OSO with the robustness required at the SAIL.
func OSOsForSAIL(s SAIL) []OSORequirement {
	if s < SAILI || s > SAILVI {
		panic(fmt.Sprintf("sora: invalid %v", s))
	}
	out := make([]OSORequirement, 0, len(osoTable))
	for _, o := range osoTable {
		out = append(out, OSORequirement{OSO: o, Required: o.PerSAIL[s-1]})
	}
	return out
}

// OSOBurden summarizes how demanding a SAIL is: the number of OSOs required
// at each robustness level.
func OSOBurden(s SAIL) map[Robustness]int {
	burden := map[Robustness]int{}
	for _, req := range OSOsForSAIL(s) {
		burden[req.Required]++
	}
	return burden
}
