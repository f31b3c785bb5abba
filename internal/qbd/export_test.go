package qbd

// CompareCompactSteps exposes the compacted-versus-dense step comparison to
// the external tests, which build their chains through internal/core (an
// import the internal test package cannot make without a cycle).
var CompareCompactSteps = compareCompactSteps
