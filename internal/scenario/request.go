package scenario

import (
	"safeland"
	"safeland/internal/urban"
)

// BuildRequest turns a generated scene into the request a fleet serves for
// it; i is the scene's position in the fleet's spec list.
type BuildRequest func(i int, s *urban.Scene) safeland.SelectRequest

// SceneRequest is the BuildRequest most fleets want: the scene attached,
// with the home bias at the scene center (the emergency position used by
// the experiment suite).
func SceneRequest(_ int, s *urban.Scene) safeland.SelectRequest {
	return safeland.SelectRequest{Scene: s, HomeX: s.Layout.WorldW / 2, HomeY: s.Layout.WorldH / 2}
}
