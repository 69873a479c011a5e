package server

// RouteKey exposes routeKey to the external tests, which count the keys
// the ring assigns to each replica.
var RouteKey = routeKey
