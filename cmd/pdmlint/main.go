// Command pdmlint is the repo's vet tool: four analyzers (iocharge,
// detrand, lockorder, guardedby) that enforce the I/O-accounting,
// determinism, and concurrency-contract invariants the paper's measured
// claims depend on. Stale or misnamed //lint:pdm-allow waivers are
// reported as a fifth rule, unusedwaiver. See DESIGN.md, "Enforced invariants".
//
// Usage:
//
//	go build -o bin/pdmlint ./cmd/pdmlint
//	go vet -vettool=$PWD/bin/pdmlint ./...
//
// or, equivalently, let it re-exec through go vet itself:
//
//	./bin/pdmlint ./...
//	./bin/pdmlint -json ./...   # one JSON diagnostic per line on stdout
package main

import (
	"os"

	"pdmdict/internal/lint"
)

func main() {
	os.Exit(lint.VettoolMain("pdmlint", os.Args[1:], os.Stdout, os.Stderr))
}
