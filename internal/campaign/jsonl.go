package campaign

import (
	"fmt"
	"io"

	"repro/internal/journal"
)

// Header is the first line of a campaign results file: the run-file header
// of internal/journal, with ConfigHash = Config.Hash() of the producing
// campaign.
type Header = journal.Header

// FormatV1 is the current results format tag.
const FormatV1 = "risotto-campaign/v1"

// ReadResults parses a campaign results stream: the header line followed
// by records. A torn final line (campaign killed mid-write) is dropped;
// any other malformed line is an error.
func ReadResults(r io.Reader) (Header, []Record, error) {
	return journal.ReadRun[Record](r, FormatV1)
}

// RunFile runs the campaign with results at path. With resume false the
// file is created (truncating any previous contents) and a fresh header
// written; with resume true the existing file's header is validated
// against cfg's hash, already-recorded test indices are skipped, and new
// records are appended.
func RunFile(cfg Config, path string, resume bool) (Summary, error) {
	out, recs, err := journal.OpenRun[Record](path, Header{Format: FormatV1, ConfigHash: cfg.Hash()}, resume)
	if err != nil {
		return Summary{}, fmt.Errorf("campaign: %w", err)
	}
	defer out.Close()
	done := make(map[int]bool, len(recs))
	for _, r := range recs {
		done[r.Idx] = true
	}
	return Run(cfg, out, done)
}
