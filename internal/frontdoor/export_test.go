package frontdoor

// The serving tests size their scenarios with the package's one
// calibration, on the cluster shape it measures.
var (
	CalibrateOverload  = calibrateOverload
	NewOverloadCluster = newOverloadCluster
)
