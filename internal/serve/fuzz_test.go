package serve

import (
	"encoding/json"
	"testing"

	"mtask/internal/plan"
)

// planRequestSeeds are the malformed and borderline bodies seeded into
// FuzzPlanRequest; the committed corpus (testdata/fuzz/FuzzPlanRequest)
// adds one well-formed request per solver graph.
var planRequestSeeds = []string{
	`{"graph":`,
	`{"graph":{"name":"g","tasks":[{"name":"a","work":1}]}}`,
	`{"machine":{"Name":"m","Nodes":1,"ProcsPerNode":1,"CoresPerProc":2,"CoreGFlops":1}}`,
	`{"graph":null,"machine":null,"options":{"strategy":"zigzag","cores":-3}}`,
	`{"graph":{"name":"c","tasks":[{"name":"a","work":1},{"name":"b","work":1}],` +
		`"edges":[{"from":0,"to":1},{"from":1,"to":0},{"from":0,"to":1,"bytes":7}]},` +
		`"machine":{"Name":"m","Nodes":1,"ProcsPerNode":1,"CoresPerProc":2,"CoreGFlops":1,` +
		`"Links":[{},{"Latency":1e-6,"Bandwidth":1e9},{"Latency":1e-6,"Bandwidth":1e9},{"Latency":1e-6,"Bandwidth":1e9}]},` +
		`"options":{"strategy":"mixed:2","cores":2,"force_groups":1,"min_groups":1,"max_groups":2}}`,
	`{"graph":{"name":"g","tasks":[{"name":"a"}],"edges":[{"from":0,"to":0}]}}`,
	`{"graph":{"name":"g","tasks":[{"name":"a","kind":"spaghetti"}]}}`,
	`{"graph":{"name":"g","tasks":[{"name":"a"}]},"graph":{"tasks":[{"name":"b"},{"name":"c"}]}}`,
	`{"graph":{"name":"g","tasks":[{"name":"a","work":1}]}} trailing`,
	`{"graph":7,"machine":[]}`,
	`[]`,
	``,
}

// FuzzPlanRequest: decoding a request body never panics, nor does anything
// the handler does with an accepted request before planning it; an
// accepted request re-encodes to a body that both decoders — the handler's
// one-pass decodePlanRequest and json.Unmarshal through
// graph.Graph.UnmarshalJSON — accept and fingerprint alike; and bytes after
// the value are rejected.
func FuzzPlanRequest(f *testing.F) {
	for _, src := range planRequestSeeds {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodePlanRequest(data)
		if err != nil {
			return
		}
		fingerprints := func(r *PlanRequest) (fp [2]uint64) {
			if r.Graph != nil {
				fp[0] = plan.GraphFingerprint(r.Graph)
			}
			if r.Machine != nil {
				fp[1] = plan.MachineFingerprint(r.Machine)
			}
			return fp
		}
		if req.Validate() == nil {
			if _, err := req.planOpts(); err == nil {
				familyOf(req.Graph, req.Machine, req.strategyName(), req.Options.Cores)
			}
		}

		canonical, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding an accepted request: %v", err)
		}
		onePass, err := decodePlanRequest(canonical)
		if err != nil {
			t.Fatalf("decodePlanRequest rejects the re-encoding: %v\n%s", err, canonical)
		}
		var nested PlanRequest
		if err := json.Unmarshal(canonical, &nested); err != nil {
			t.Fatalf("json.Unmarshal rejects the re-encoding: %v\n%s", err, canonical)
		}
		want := fingerprints(req)
		if got := fingerprints(onePass); got != want || onePass.Options != req.Options {
			t.Fatalf("one-pass decode of the re-encoding: fingerprints %x options %+v, want %x %+v",
				got, onePass.Options, want, req.Options)
		}
		if got := fingerprints(&nested); got != want || nested.Options != req.Options {
			t.Fatalf("nested decode of the re-encoding: fingerprints %x options %+v, want %x %+v",
				got, nested.Options, want, req.Options)
		}
		if _, err := decodePlanRequest(append(canonical, '1')); err == nil {
			t.Fatal("bytes after the request value were accepted")
		}
	})
}
