package core

// MixedCrowdTraced exposes the determinism suite's mixed crowd to the
// external outcome test, which also imports the tile kernel.
var MixedCrowdTraced = mixedCrowdTraced
