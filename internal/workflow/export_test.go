package workflow

// CheckGolden lets the external workflow_test package share the golden
// helper and its -update flag.
var CheckGolden = checkGolden
