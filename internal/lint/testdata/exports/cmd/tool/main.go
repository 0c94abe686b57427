package main

import (
	"fmt"

	"exportsfix/internal/lib"
)

func main() { fmt.Println(lib.Name("tool"), lib.Used()) }
