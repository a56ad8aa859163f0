package routeserver

import "repro/internal/policy"

// ServePhase serves every request across clients concurrent goroutines —
// client i takes requests i, i+C, i+2C, … — and returns the per-request
// results in workload order. Because results are written to the slot of
// their request, the returned slice is independent of scheduling;
// experiments rely on this for byte-identical tables at any parallelism.
// Churn goes between phases (Server.Mutate/MutateScoped at the barriers);
// for wall-clock load runs with mid-run churn use daemon.LoadRun.
func ServePhase(srv *Server, workload []policy.Request, clients int) []Result {
	if clients <= 0 {
		clients = 4
	}
	results := make([]Result, len(workload))
	n := min(clients, len(workload))
	if n <= 1 {
		for i, req := range workload {
			results[i] = srv.Query(req)
		}
		return results
	}
	done := make(chan struct{})
	for c := 0; c < n; c++ {
		c := c
		go func() {
			defer func() { done <- struct{}{} }()
			for i := c; i < len(workload); i += n {
				results[i] = srv.Query(workload[i])
			}
		}()
	}
	for c := 0; c < n; c++ {
		<-done
	}
	return results
}
