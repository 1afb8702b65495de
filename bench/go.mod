// The benchmark is a module of its own so the repo's `go build ./...` and
// `go test ./...` never compile it; the import path keeps the parent's
// prefix, which is what lets it import the parent's internal packages.
module github.com/payloadpark/payloadpark/bench

go 1.22

require github.com/payloadpark/payloadpark v0.0.0

replace github.com/payloadpark/payloadpark => ../
