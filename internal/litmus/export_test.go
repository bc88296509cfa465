package litmus

// TestCorpus exposes the in-package corpus list to the external tests.
var TestCorpus = testCorpus
