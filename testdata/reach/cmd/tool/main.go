// Command tool is the planted module's product root.
package main

import (
	"fmt"

	"planted"
	"planted/internal/shapes"
)

func main() {
	fmt.Println(planted.Area(shapes.Square{Side: 2}), shapes.Label{Text: "a"}.Name())
}
