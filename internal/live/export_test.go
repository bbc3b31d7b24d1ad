package live

// Test helpers for the external live_test package: a Local whose cleanup
// fails the test on a leaked reservation, the catalog generator and the
// poll helper.
var (
	StartLocal = startLocal
	GenCatalog = testCatalog
	WaitFor    = waitFor
)
