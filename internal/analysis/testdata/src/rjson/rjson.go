// Fixture for the reportjson analyzer: Report is a root by name, Extra
// structs become roots by carrying json tags, and reachability flows
// through fields.
package rjson

type Report struct {
	Goodput  float64 `json:"goodput_gbps"`
	Latency  float64 // want `has no json tag`
	BadKey   int     `json:"BadKey"`     // want `not snake_case`
	Nameless int     `json:",omitempty"` // want `has no name`
	Skipped  *Secret `json:"-"`
	Sub      Nested  `json:"sub"`
	Items    []Item  `json:"items"`
	hidden   int
}

// Nested is reached through Report.Sub.
type Nested struct {
	Count int `json:"count"`
	Extra int // want `has no json tag`
}

// Item is reached through the Items slice.
type Item struct {
	Name string `json:"name"`
	Note string //pp:json-ok fixture: scratch field, excluded deliberately
}

// Secret sits behind a json:"-" field: unreachable, so its untagged
// fields are fine.
type Secret struct {
	Token string
}

// Loose has exported fields but no tags and nothing references it: not a
// root, no findings.
type Loose struct {
	Whatever int
}

// Custom marshals itself; reachability stops at it.
type Custom struct {
	Raw []byte
}

func (c Custom) MarshalJSON() ([]byte, error) { return c.Raw, nil }

// Wrapped pulls Custom into the surface; Custom's untagged Raw field is
// not a finding because Custom serializes itself.
type Wrapped struct {
	C Custom `json:"c"`
}

// Flat embeds Base and Partial untagged: encoding/json flattens their keys
// into Flat's, so the embeddings need no tag. Each embedded struct's own
// fields are checked where it is declared.
type Flat struct {
	Base
	*Partial
	Total int `json:"total"`
}

// Base's fields are all tagged: embedding it raises nothing.
type Base struct {
	Count int `json:"base_count"`
}

// Partial has an untagged field, reported at its declaration.
type Partial struct {
	Tagged int `json:"tagged"`
	Bare   int // want `has no json tag`
}
