// Package synth generates the synthetic driving world that substitutes for
// the paper's KITTI / BDD100k / SHD video corpora (DESIGN.md §2). It
// produces frames on a feature grid whose object appearance is conditioned
// on the semantic scene (weather × location × time-of-day), organized into
// temporally coherent video clips drawn from three dataset profiles, with
// the paper's seen/unseen and train/val/test splits.
//
// The essential property carried over from the real datasets is
// scene-conditioned appearance: the same object class produces different
// cell features under different scenes, via per-attribute affine transforms
// composed per scene. A capacity-limited detector can invert the transform
// of one scene but not of all scenes at once — which is exactly the
// premise Anole exploits.
//
// Every float product that feeds a sum is written float64(x*y) + z:
// the conversion rounds the product, so no platform fuses a
// multiply-add, and arm64 generates and describes the same frames, bit
// for bit, as amd64 (CI's arm64 objdump check covers this package).
package synth

import "fmt"

// Weather is the meteorological attribute dimension of a semantic scene.
type Weather uint8

// Weather values (paper §IV-A1: clear, overcast, rainy, snowy, foggy).
const (
	Clear Weather = iota
	Overcast
	Rainy
	Snowy
	Foggy
	numWeather
)

// Location is the spatial attribute dimension of a semantic scene.
type Location uint8

// Location values (paper §IV-A1: highway, urban, residential, parking lot,
// tunnel, gas station, bridge, toll booth).
const (
	Highway Location = iota
	Urban
	Residential
	ParkingLot
	Tunnel
	GasStation
	Bridge
	TollBooth
	numLocation
)

// TimeOfDay is the temporal attribute dimension of a semantic scene.
type TimeOfDay uint8

// TimeOfDay values (paper §IV-A1: daytime, dawn/dusk, night).
const (
	Daytime TimeOfDay = iota
	DawnDusk
	Night
	numTime
)

// NumWeather, NumLocation and NumTime are the attribute-dimension sizes;
// NumScenes is their product — the paper's 120 semantic scene combinations.
const (
	NumWeather  = int(numWeather)
	NumLocation = int(numLocation)
	NumTime     = int(numTime)
	NumScenes   = NumWeather * NumLocation * NumTime
)

var weatherNames = [...]string{"clear", "overcast", "rainy", "snowy", "foggy"}

func (w Weather) String() string {
	if int(w) < len(weatherNames) {
		return weatherNames[w]
	}
	return fmt.Sprintf("weather(%d)", uint8(w))
}

var locationNames = [...]string{
	"highway", "urban", "residential", "parking-lot",
	"tunnel", "gas-station", "bridge", "toll-booth",
}

func (l Location) String() string {
	if int(l) < len(locationNames) {
		return locationNames[l]
	}
	return fmt.Sprintf("location(%d)", uint8(l))
}

var timeNames = [...]string{"daytime", "dawn-dusk", "night"}

func (t TimeOfDay) String() string {
	if int(t) < len(timeNames) {
		return timeNames[t]
	}
	return fmt.Sprintf("time(%d)", uint8(t))
}

// Scene is one semantic scene: a point in the weather × location × time
// attribute space. These are the paper's fine-grained human-heuristic
// scenes Γᵢ^sem that seed M_scene training.
type Scene struct {
	Weather  Weather
	Location Location
	Time     TimeOfDay
}

// Index flattens the scene into [0, NumScenes).
func (s Scene) Index() int {
	return (int(s.Weather)*NumLocation+int(s.Location))*NumTime + int(s.Time)
}

// SceneFromIndex is the inverse of Scene.Index. It panics on out-of-range
// indices.
func SceneFromIndex(idx int) Scene {
	if idx < 0 || idx >= NumScenes {
		panic(fmt.Sprintf("synth: scene index %d out of range", idx))
	}
	t := idx % NumTime
	idx /= NumTime
	l := idx % NumLocation
	w := idx / NumLocation
	return Scene{Weather: Weather(w), Location: Location(l), Time: TimeOfDay(t)}
}

func (s Scene) String() string {
	return fmt.Sprintf("%s/%s/%s", s.Weather, s.Location, s.Time)
}

// Class identifies a foreground object class.
type Class uint8

// Object classes detected in driving frames.
const (
	Car Class = iota
	Pedestrian
	Truck
	Cyclist
	NumClasses = 4
)

var classNames = [...]string{"car", "pedestrian", "truck", "cyclist"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}
