package service

// Hooks for the external test package: the fleet parity test imports
// the router, which imports this package, so it cannot live in package
// service itself.

// SmallCorpus is the corpus the v1 golden files were recorded on.
var SmallCorpus = smallCorpus

// GoldenRow is one row of v1GoldenCases, as the parity test replays it.
type GoldenRow struct {
	Name, Method, Path, Body string
	Status                   int
	Opts                     []HandlerOption
}

// V1GoldenRows returns the v1 golden rows a backend serves; rows run
// against a purpose-built middleware stack are left out.
func V1GoldenRows() []GoldenRow {
	var rows []GoldenRow
	for _, gc := range v1GoldenCases() {
		if gc.handler == nil {
			rows = append(rows, GoldenRow{gc.name, gc.method, gc.path, gc.body, gc.wantStatus, gc.opts})
		}
	}
	return rows
}
