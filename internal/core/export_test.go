package core

// ResultDiff exposes resultDiff to the external tests of this package.
var ResultDiff = resultDiff
