// Package doccheck holds the repository's documentation conformance
// checks, run as ordinary tests (and as a dedicated CI job): every
// relative link in README.md, ROADMAP.md and the docs/ markdown files
// must resolve to a real file, every backticked sim/engine/obs/eval/nd
// identifier they cite must still be declared, every exported identifier
// of the public nd package must carry a doc comment, and the documents
// that explain the observability layer must keep their required sections.
package doccheck
