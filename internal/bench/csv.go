package bench

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// CSV export, mirroring the paper artifact's workflow (its scripts write
// raw results as CSV files into results/ for the plotting notebooks).

// WriteFig12CSV writes fig12.csv: one row per benchmark with the relative
// runtimes and QEMU's absolute seconds.
func WriteFig12CSV(dir string, rows []Fig12Row) error {
	records := [][]string{{
		"benchmark", "suite", "qemu_secs",
		"rel_no_fences", "rel_tcg_ver", "rel_risotto", "rel_native",
		"checksums_agree",
	}}
	for _, r := range rows {
		records = append(records, []string{
			r.Kernel, r.Suite,
			fmtF(r.QemuSecs),
			fmtF(r.Relative["no-fences"]), fmtF(r.Relative["tcg-ver"]),
			fmtF(r.Relative["risotto"]), fmtF(r.Relative["native"]),
			strconv.FormatBool(r.Checksums),
		})
	}
	return writeCSV(dir, "fig12.csv", records)
}

// WriteLinkCSV writes a Figure-13/14-style speedup table.
func WriteLinkCSV(dir, name string, rows []LinkRow) error {
	records := [][]string{{"benchmark", "qemu_ops_per_sec", "risotto_speedup", "native_speedup"}}
	for _, r := range rows {
		records = append(records, []string{
			r.Name, fmtF(r.QemuOps), fmtF(r.RisottoSpeedup), fmtF(r.NativeSpeedup),
		})
	}
	return writeCSV(dir, name, records)
}

// WriteFig15CSV writes the CAS-contention sweep.
func WriteFig15CSV(dir string, rows []Fig15Row) error {
	records := [][]string{{"threads", "vars", "qemu_ops_per_sec", "risotto_ops_per_sec", "native_ops_per_sec"}}
	for _, r := range rows {
		records = append(records, []string{
			strconv.Itoa(r.Threads), strconv.Itoa(r.Vars),
			fmtF(r.Qemu), fmtF(r.Risotto), fmtF(r.Native),
		})
	}
	return writeCSV(dir, "fig15.csv", records)
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

func writeCSV(dir, name string, records [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(records); err != nil {
		f.Close()
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
