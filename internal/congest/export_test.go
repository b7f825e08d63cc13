package congest

// FansOut exposes the fan-out rule to the external tests.
var FansOut = fansOut
