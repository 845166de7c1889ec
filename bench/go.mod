// The benchmark is a module of its own so that the repo's tier-1
// `go build ./... && go test ./...` neither builds nor depends on it. The
// module path sits under vigil/ so that vigil's internal packages stay
// importable; the replace directive points at the checkout it lives in.
module vigil/bench

go 1.24

require vigil v0.0.0

replace vigil => ../
