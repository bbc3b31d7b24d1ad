package experiments

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestDynamicReplicationTablesGolden compares the quick-mode output of
// every experiment qosbench lists, the paper's tables and figures and the
// ablations, with the files in testdata, byte for byte: each one's cells
// and, for a figure, its series. They were written by
//
//	for id in $(qosbench -list); do qosbench -quick -exp $id -csv internal/experiments/testdata; done
//
// on the commit that keyed each replication attempt's and each random
// ranking's draws by the decision (DESIGN §6, the RNG-stream rule). Every
// cell and point is a function of the seed alone, so a change meant to
// move only what a run costs leaves them alone. A change that is meant to
// move them regenerates the files with the same command and says why.
func TestDynamicReplicationTablesGolden(t *testing.T) {
	for _, id := range append(IDs(), AblationIDs()...) {
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, Quick())
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, id+".cells.csv", res.WriteCellsCSV)
			if len(res.Series) > 0 || goldenExists(t, id+".series.csv") {
				checkGolden(t, id+".series.csv", res.WriteSeriesCSV)
			}
		})
	}
}

// checkGolden compares what write emits with testdata/name.
func checkGolden(t *testing.T, name string, write func(io.Writer) error) {
	t.Helper()
	var got bytes.Buffer
	if err := write(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("quick-mode output differs from testdata/%s\n--- got\n%s--- want\n%s", name, got.Bytes(), want)
	}
}

func goldenExists(t *testing.T, name string) bool {
	t.Helper()
	_, err := os.Stat(filepath.Join("testdata", name))
	if errors.Is(err, fs.ErrNotExist) {
		return false
	}
	if err != nil {
		t.Fatal(err)
	}
	return true
}
