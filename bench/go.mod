// The benchmark is its own module so it builds from this directory
// alone (plus the parent it replaces) and stays out of the parent's
// `go build ./...`. The module path keeps the `upkit/` prefix: that is
// what lets it import the parent's internal/ packages.
module upkit/bench

go 1.24

require upkit v0.0.0

replace upkit => ../
