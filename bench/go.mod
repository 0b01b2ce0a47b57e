module deepdive/bench

go 1.22

require deepdive v0.0.0

replace deepdive => ../
