package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDynamicReplicationTablesGolden compares the quick-mode cells of the
// two dynamic-replication tables with the files in testdata, byte for
// byte. They were written by
//
//	qosbench -quick -exp table4 -csv internal/experiments/testdata
//	qosbench -quick -exp table5 -csv internal/experiments/testdata
//
// on the commit before the replication walk learned to stop at the
// replica cap, so they hold what the per-candidate walk decided. Every
// cell is a function of the seed alone; a change that is meant to move
// them regenerates the files with the same two commands and says why.
func TestDynamicReplicationTablesGolden(t *testing.T) {
	for _, id := range []string{"table4", "table5"} {
		res, err := Run(id, Quick())
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := res.WriteCellsCSV(&got); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", id+".cells.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s quick-mode cells differ from testdata/%s.cells.csv\n--- got\n%s--- want\n%s", id, id, got.Bytes(), want)
		}
	}
}
