module papyruskv/bench

go 1.24

require papyruskv v0.0.0

replace papyruskv => ../
